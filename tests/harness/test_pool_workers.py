"""The pooled path's worker lifetime: forked once per call, not per cell.

``execute_tasks(workers>1)`` keeps at most ``workers`` long-lived
worker processes. A worker serves task after task; only an overrun
(killed) or a death (injected or real) replaces it. Whatever way the
call ends, no worker outlives it.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro.faultplane import FaultInjector, FaultPlan, InjectedDeaths
from repro.harness.executor import outcomes
from repro.harness.pool import (
    ExecutorError,
    Task,
    default_context,
    execute_tasks,
)


class _CountingContext:
    """A start-method context that records every process it creates."""

    def __init__(self):
        self._ctx = default_context()
        self.processes = []

    def Pipe(self, *args, **kwargs):  # noqa: N802 - mirrors the context API
        return self._ctx.Pipe(*args, **kwargs)

    def Process(self, *args, **kwargs):  # noqa: N802
        process = self._ctx.Process(*args, **kwargs)
        self.processes.append(process)
        return process


# Runners are module-level so every start method can resolve them.

def _pid(payload):
    return os.getpid()


def _fail_once(payload):
    """Raise on the first attempt at a marked payload (a marker file
    remembers it across processes), return the pid otherwise."""
    marker = payload.get("marker")
    if marker and not os.path.exists(marker):
        open(marker, "w").close()
        raise RuntimeError("transient failure in %d" % os.getpid())
    return os.getpid()


def _sleep_then_pid(payload):
    if payload.get("pidfile"):
        with open(payload["pidfile"], "w") as handle:
            handle.write(str(os.getpid()))
    time.sleep(payload["sleep"])
    return os.getpid()


def _raise(payload):
    raise ValueError("cell %r failed" % (payload,))


@pytest.fixture(autouse=True)
def _no_worker_left_behind():
    yield
    assert multiprocessing.active_children() == []


class TestWorkerReuse:
    def test_eight_tasks_on_two_workers_see_two_pids(self):
        ctx = _CountingContext()
        cells = execute_tasks([Task(index=i, payload=i) for i in range(8)],
                              _pid, workers=2, mp_context=ctx)
        assert all(cell.ok and cell.attempts == 1 for cell in cells)
        pids = {cell.outcome for cell in cells}
        assert len(pids) == 2
        assert {p.pid for p in ctx.processes} == pids
        assert all(p.exitcode == 0 for p in ctx.processes)

    def test_workers_start_lazily(self):
        ctx = _CountingContext()
        cells = execute_tasks([Task(index=0, payload=0)], _pid, workers=4,
                              mp_context=ctx)
        assert cells[0].ok
        assert len(ctx.processes) == 1

    def test_a_raising_task_leaves_its_worker_serving(self, tmp_path):
        ctx = _CountingContext()
        marker = str(tmp_path / "failed-once")
        tasks = [Task(index=i, payload={"marker": marker if i == 2 else None})
                 for i in range(8)]
        cells = execute_tasks(tasks, _fail_once, workers=2, retries=1,
                              mp_context=ctx)
        assert [cell.attempts for cell in cells] == [1, 1, 2, 1, 1, 1, 1, 1]
        assert all(cell.ok for cell in cells)
        assert len(ctx.processes) == 2
        assert {cell.outcome for cell in cells} == \
            {p.pid for p in ctx.processes}


class TestWorkerReplacement:
    def test_an_overrun_kills_its_worker_and_a_replacement_serves(
            self, tmp_path):
        ctx = _CountingContext()
        pidfile = str(tmp_path / "hung.pid")
        tasks = [Task(index=0, payload={"sleep": 30.0, "pidfile": pidfile},
                      timeout=0.5)]
        tasks += [Task(index=i, payload={"sleep": 0.25}, timeout=30.0)
                  for i in range(1, 9)]
        cells = execute_tasks(tasks, _sleep_then_pid, workers=2, retries=0,
                              mp_context=ctx)
        assert (cells[0].failure.kind, cells[0].attempts) == ("timeout", 1)
        assert all(cell.ok for cell in cells[1:])
        with open(pidfile) as handle:
            hung = int(handle.read())
        served = {cell.outcome for cell in cells[1:]}
        assert hung not in served
        # The untouched worker plus the hung one's replacement.
        assert len(served) == 2
        assert len(ctx.processes) == 3

    def test_an_injected_death_is_refunded_and_a_fresh_worker_retries(self):
        ctx = _CountingContext()
        injector = FaultInjector(plan=FaultPlan(seed=0, level=1.0))
        cells = execute_tasks([Task(index=0, payload=0)], _pid, workers=2,
                              mp_context=ctx, injector=injector)
        assert cells[0].ok and cells[0].attempts == 1
        doomed, served = ctx.processes[:-1], ctx.processes[-1]
        assert len(doomed) == InjectedDeaths.CAP
        assert [p.exitcode for p in doomed] == [173] * InjectedDeaths.CAP
        assert cells[0].outcome == served.pid


class TestNoWorkerOutlivesTheCall:
    def test_after_a_normal_return(self):
        execute_tasks([Task(index=i, payload=i) for i in range(4)], _pid,
                      workers=2)
        assert multiprocessing.active_children() == []

    def test_after_executor_error(self):
        with pytest.raises(ExecutorError):
            outcomes(execute_tasks(
                [Task(index=i, payload=i) for i in range(4)], _raise,
                workers=2, retries=0))
        assert multiprocessing.active_children() == []

    def test_after_on_success_raises(self):
        def explode(task, outcome):
            raise RuntimeError("cache write failed")

        with pytest.raises(RuntimeError, match="cache write failed"):
            execute_tasks([Task(index=i, payload={"sleep": 0.2})
                           for i in range(4)], _sleep_then_pid, workers=2,
                          on_success=explode)
        assert multiprocessing.active_children() == []

    def test_after_the_parent_is_killed(self, tmp_path):
        """An idle worker whose parent was SIGKILLed exits by itself
        (it holds both ends of its own pipe, so it never reads EOF)."""
        idle_pidfile = tmp_path / "idle.pid"
        script = textwrap.dedent("""
            import sys
            sys.path[:0] = %r
            from test_pool_workers import _sleep_then_pid
            from repro.harness.pool import Task, execute_tasks
            execute_tasks([
                Task(index=0, payload={"sleep": 2.0}),
                Task(index=1, payload={"sleep": 0.0, "pidfile": %r}),
            ], _sleep_then_pid, workers=2)
        """) % ([os.path.dirname(os.path.abspath(__file__)),
                 os.path.dirname(os.path.dirname(repro.__file__))],
                str(idle_pidfile))
        parent = subprocess.Popen([sys.executable, "-c", script])
        try:
            deadline = time.monotonic() + 30.0
            while not idle_pidfile.exists() or not idle_pidfile.read_text():
                assert time.monotonic() < deadline, "worker never started"
                time.sleep(0.05)
            idle = int(idle_pidfile.read_text())
            time.sleep(0.2)   # let the idle worker settle into its poll
        finally:
            parent.send_signal(signal.SIGKILL)
            parent.wait()
        deadline = time.monotonic() + 10.0
        while _running(idle):
            assert time.monotonic() < deadline, "orphaned worker lingers"
            time.sleep(0.1)


def _running(pid):
    """Whether ``pid`` is a live (not exited, not zombie) process."""
    try:
        with open("/proc/%d/stat" % pid) as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False
