"""repro.fleet: the distributed campaign control plane.

A stdlib-only coordinator/worker architecture over the existing cell
machinery. The **coordinator** (:mod:`repro.fleet.coordinator`) owns a
deterministic lease table per submitted campaign and serves an
HTTP+JSON API; **worker agents** (:mod:`repro.fleet.agent`) register,
heartbeat, lease cells, execute them through ``run_spec`` + the shared
content-addressed cache, and report outcomes. The lease table is the
process pool's (:mod:`repro.harness.leases`), so both backends settle
cells under one retry and timeout policy. Missed heartbeats expire
leases and re-assign cells; lease fencing epochs discard zombie
results; the shared cache plus checkpoint/resume make a re-leased cell
continue instead of restart.

The contract that makes all of this safe to use for the evaluation:
**a fleet run's merged export is byte-identical to ``workers=N`` local
execution** — results fold in spec order, never arrival order, and
every cell's outcome is a pure function of its spec. The hypothesis
harness (``tests/fleet/test_fleet_determinism.py``) kills arbitrary
agents at arbitrary points and pins the invariant down; CI's
``fleet-smoke`` job does it once more over real processes and SIGKILL.

:func:`run_specs_fleet` is the executor's ``backend="fleet"`` dispatch
target: same signature shape as the local pool path, same
:class:`~repro.harness.pool.CellResult` list back.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Sequence

from repro.fleet import wire
from repro.fleet.agent import FleetAgent, LocalClient
from repro.fleet.client import (
    CoordinatorClient,
    CoordinatorUnavailable,
    wait_for_session,
)
from repro.fleet.coordinator import (
    FleetConfig,
    FleetCoordinator,
    FleetServer,
    serve,
)
from repro.harness.leases import CellFailure, LeaseTable
from repro.telemetry import NULL_TELEMETRY

__all__ = [
    "CoordinatorClient",
    "CoordinatorUnavailable",
    "FleetAgent",
    "FleetConfig",
    "FleetCoordinator",
    "FleetServer",
    "LeaseTable",
    "LocalClient",
    "collect_cells",
    "run_specs_fleet",
    "serve",
    "wait_for_session",
    "wire",
]

#: Ephemeral-fleet cadence: a dead in-test agent's cell comes back
#: within one 10 s TTL, loose enough not to flap under loaded CI
#: runners.
_EPHEMERAL_CONFIG = FleetConfig(lease_ttl=10.0, heartbeat_interval=2.0)


def collect_cells(client, session_id: str, specs: Sequence,
                  status=None) -> List:
    """Fold a settled session back into spec-ordered ``CellResult``\\ s.

    The fold is by cell *index* — the submit order — so the merged list
    (and any export derived from it) is independent of which agent
    finished which cell when.
    """
    from repro.harness.pool import CellResult

    status = status or client.status(session_id)
    by_index = {cell.index: cell for cell in status.cells}
    results: List[CellResult] = []
    for index, spec in enumerate(specs):
        cell = by_index[index]
        report = client.cell_result(session_id, index)
        if report.outcome_blob is not None:
            results.append(CellResult(
                index=index, spec=spec, outcome=wire.unpack(report.outcome_blob),
                from_cache=report.from_cache, attempts=cell.attempts,
            ))
        else:
            results.append(CellResult(
                index=index, spec=spec,
                failure=CellFailure.from_dict(report.failure or {}),
                attempts=cell.attempts,
            ))
    return results


def run_specs_fleet(
    specs: Sequence,
    coordinator: Optional[str] = None,
    workers: int = 2,
    runner: Optional[Callable] = None,
    cache: bool = False,
    cache_dir: Optional[str] = None,
    retries: int = 1,
    telemetry=None,
    io_injector=None,
    poll: float = 0.2,
    label: str = "",
    timeout: Optional[float] = None,
    wait_timeout: Optional[float] = None,
) -> List:
    """Run a spec grid on the fleet; the executor's ``backend="fleet"``.

    ``timeout`` is each cell's wall-clock budget per attempt, as in
    :func:`~repro.harness.pool.execute_tasks`: the coordinator fails an
    overrun cell as a ``timeout`` and fences its late result.
    ``wait_timeout`` bounds how long the submitter waits for the whole
    session before giving up with
    :class:`~repro.fleet.client.CoordinatorUnavailable`.

    Two shapes:

    - ``coordinator`` given (a URL): submit to a *running* control
      plane whose external agents execute the cells. ``workers``,
      ``runner``, ``cache`` and ``io_injector`` stay with those agents'
      own configuration and are ignored here (a non-default runner is
      rejected — it cannot cross the wire).
    - ``coordinator`` omitted: spin an **ephemeral fleet** — an
      in-process coordinator HTTP server plus ``workers`` agent
      threads — run the grid through the full wire protocol, tear it
      all down. This is the drop-in replacement for the local pool
      (and what ``CMFUZZ_RD_BACKEND=fleet`` drives in the determinism
      gates).

    Returns:
        One :class:`~repro.harness.pool.CellResult` per spec, in spec
        order, exactly like :func:`~repro.harness.pool.execute_tasks`.
    """
    from repro.harness.executor import run_spec

    spec_list = list(specs)
    tele = telemetry or NULL_TELEMETRY
    blobs = [wire.pack(spec) for spec in spec_list]
    tele.counter("fleet.dispatched_cells").inc(len(spec_list))

    if coordinator is not None:
        if runner is not None and runner is not run_spec:
            raise ValueError(
                "backend='fleet' with a remote coordinator cannot ship a "
                "custom runner; agents execute run_spec")
        client = CoordinatorClient(coordinator)
        # A coordinator started alongside the submitter may not listen
        # yet; wait for it as ``repro fleet agent`` does.
        client.wait_ready(timeout=30.0)
        accepted = client.submit(blobs, retries=retries, label=label,
                                 timeout=timeout)
        status = wait_for_session(client, accepted.session_id, poll=poll,
                                  timeout=wait_timeout)
        return collect_cells(client, accepted.session_id, spec_list,
                             status=status)

    server = serve(config=_EPHEMERAL_CONFIG, telemetry=tele).start()
    agents: List[FleetAgent] = []
    threads = []
    try:
        client = CoordinatorClient(server.url)
        client.wait_ready()
        accepted = client.submit(blobs, retries=retries,
                                 label=label or "ephemeral", timeout=timeout)
        for index in range(max(1, workers)):
            agent = FleetAgent(
                CoordinatorClient(server.url),
                name="local-%d" % index, runner=runner, cache=cache,
                cache_dir=cache_dir, poll=0.05, telemetry=tele,
                injector=io_injector,
            )
            agents.append(agent)
            thread = threading.Thread(
                target=agent.run, name="fleet-agent-%d" % index, daemon=True)
            thread.start()
            threads.append(thread)
        status = wait_for_session(client, accepted.session_id, poll=poll,
                                  timeout=wait_timeout)
        return collect_cells(client, accepted.session_id, spec_list,
                             status=status)
    finally:
        for agent in agents:
            agent.stop()
        for thread in threads:
            thread.join(5.0)
        server.stop()
        # The ephemeral fleet must not leak wall-clock sensitivity into
        # callers that immediately re-enter (tests loop tightly).
        time.sleep(0)
