"""Worker fault tolerance: raises, timeouts and dead workers become
structured failure records; the rest of the grid still completes; a
bounded retry recovers transient failures. On the local pool a raise
leaves its worker serving the retry, while a timeout or a dead worker
gets a replacement (``test_pool_workers.py`` pins the lifetimes).

Both backends settle cells through one lease table, so the exception
and timeout cases run on the local pool and on an ephemeral fleet and
must produce the same records, ``attempts`` included.
"""

import os
import time

import pytest

from repro.harness.campaign import CampaignConfig
from repro.harness.executor import (
    CampaignOutcome,
    CampaignSpec,
    ExecutorError,
    execute_specs,
    outcomes,
)


def _spec(**mode_kwargs):
    return CampaignSpec(
        target="dnsmasq",
        mode="peach",
        mode_kwargs=mode_kwargs,
        config=CampaignConfig(n_instances=1, duration_hours=0.5),
    )


def _outcome(spec):
    return CampaignOutcome(
        mode=spec.mode,
        target=spec.target,
        coverage_points=[(0.0, 1.0)],
        bug_entries=[],
        instance_stats=[],
        iterations=1,
    )


# Runners are module-level so worker processes can resolve them.

def _explosive_runner(spec):
    if spec.mode_kwargs.get("explode"):
        raise RuntimeError("injected failure")
    return _outcome(spec)


def _dying_runner(spec):
    if spec.mode_kwargs.get("die"):
        os._exit(17)
    return _outcome(spec)


def _hanging_runner(spec):
    if spec.mode_kwargs.get("hang"):
        time.sleep(120)
    return _outcome(spec)


def _flaky_runner(spec):
    marker = spec.mode_kwargs["marker"]
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError("transient glitch")
    return _outcome(spec)


#: (backend, workers); the local cases keep their worker-count ids.
_BACKENDS = [
    pytest.param("local", 1, id="1"),
    pytest.param("local", 2, id="2"),
    pytest.param("fleet", 1, id="fleet-1"),
    pytest.param("fleet", 2, id="fleet-2"),
]


@pytest.mark.parametrize("backend, workers", _BACKENDS)
class TestExceptionHandling:
    def test_failure_record_and_surviving_cells(self, backend, workers):
        specs = [_spec(), _spec(explode=True), _spec(), _spec()]
        cells = execute_specs(specs, workers=workers, runner=_explosive_runner,
                              retries=0, backend=backend)
        assert [cell.index for cell in cells] == [0, 1, 2, 3]
        failed = cells[1]
        assert not failed.ok
        assert failed.failure.kind == "exception"
        assert "RuntimeError" in failed.failure.message
        assert "injected failure" in failed.failure.message
        assert failed.attempts == 1
        assert all(cell.ok for cell in cells if cell.index != 1)

    def test_outcomes_raises_with_failed_cells_attached(self, backend,
                                                        workers):
        cells = execute_specs([_spec(explode=True)], workers=workers,
                              runner=_explosive_runner, retries=0,
                              backend=backend)
        with pytest.raises(ExecutorError) as excinfo:
            outcomes(cells)
        assert excinfo.value.failed[0].failure.kind == "exception"
        assert "dnsmasq" in str(excinfo.value)

    def test_retry_is_bounded(self, backend, workers):
        cells = execute_specs([_spec(explode=True)], workers=workers,
                              runner=_explosive_runner, retries=2,
                              backend=backend)
        assert not cells[0].ok
        assert cells[0].attempts == 3

    def test_retry_recovers_transient_failure(self, backend, workers,
                                              tmp_path):
        specs = [
            _spec(marker=str(tmp_path / "cell-a")),
            _spec(marker=str(tmp_path / "cell-b")),
        ]
        cells = execute_specs(specs, workers=workers, runner=_flaky_runner,
                              retries=1, backend=backend)
        assert all(cell.ok for cell in cells)
        assert all(cell.attempts == 2 for cell in cells)


class TestWorkerDeath:
    """Pool-only: an ephemeral fleet runs cells in agent threads of this
    process, where ``os._exit`` would kill the test run itself."""

    def test_dead_worker_is_a_structured_failure(self):
        specs = [_spec(), _spec(die=True), _spec()]
        cells = execute_specs(specs, workers=2, runner=_dying_runner,
                              retries=0, backend="local")
        dead = cells[1]
        assert not dead.ok
        assert dead.failure.kind == "worker-died"
        assert dead.failure.exitcode == 17
        assert all(cell.ok for cell in cells if cell.index != 1)

    def test_dead_worker_can_be_retried(self, tmp_path):
        # Death is permanent here, so the retry burns its budget and the
        # failure record reports both attempts.
        cells = execute_specs([_spec(die=True)], workers=2,
                              runner=_dying_runner, retries=1,
                              backend="local")
        assert not cells[0].ok
        assert cells[0].failure.kind == "worker-died"
        assert cells[0].attempts == 2


@pytest.mark.parametrize("backend, workers", [
    pytest.param("local", 2, id="2"),
    pytest.param("fleet", 2, id="fleet-2"),
])
class TestTimeouts:
    def test_hung_worker_is_terminated_not_waited_for(self, backend,
                                                      workers):
        """The pool kills the hung worker; the fleet fails the cell and
        fences the agent thread, which cannot be killed."""
        specs = [_spec(), _spec(hang=True), _spec()]
        start = time.monotonic()
        cells = execute_specs(specs, workers=workers, runner=_hanging_runner,
                              timeout=1.0, retries=0, backend=backend)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0
        hung = cells[1]
        assert not hung.ok
        assert hung.failure.kind == "timeout"
        assert hung.attempts == 1
        assert all(cell.ok for cell in cells if cell.index != 1)
