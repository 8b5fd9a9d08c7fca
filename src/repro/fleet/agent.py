"""The fleet worker agent: register, heartbeat, lease, execute, report.

A :class:`FleetAgent` is the data plane's unit of scale. It speaks only
the wire protocol (through a :class:`~repro.fleet.client.CoordinatorClient`
or the in-process :class:`LocalClient`), and executes each leased cell
through the exact machinery the local pool uses — :func:`run_spec` plus
the shared content-addressed :class:`ResultCache` — so a cell computes
the identical outcome no matter which agent (or how many, after
re-leases) runs it:

- the shared ``.cmfuzz-cache`` is the result store: a re-leased cell
  whose previous holder already finished is served from the cache, and
  a checkpointing cell whose holder died mid-run resumes from its
  checkpoint (``run_spec`` forces ``resume=True``) instead of
  restarting;
- a lease's fencing epoch rides along to the report, so work finished
  after the coordinator expired the lease is discarded server-side —
  the agent never has to reason about whether it is a zombie;
- failures are reported as the pool's
  :class:`~repro.harness.leases.CellFailure` records and charged
  against the cell's retry budget by the coordinator's lease table,
  not locally.

The heartbeat runs on its own daemon thread at the cadence the
coordinator dictated at registration; an ``expired`` heartbeat answer
(the coordinator swept us) triggers re-registration under a fresh
identity, abandoning any stale lease to the epoch fence.

An optional fault-plane injector dooms cells before execution
(``fleet.agent`` site, under the
:class:`~repro.faultplane.InjectedDeaths` cap the pool uses too): the
agent *releases* the lease unexecuted — observationally a crash, minus the wall-clock
wait for expiry. As in the pool, the release refunds the attempt, and
exports stay byte-identical.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Any, Callable, Optional

from repro.faultplane import InjectedDeaths
from repro.fleet import wire
from repro.fleet.client import CoordinatorUnavailable
from repro.harness.leases import CellFailure
from repro.telemetry import NULL_TELEMETRY

__all__ = ["FleetAgent", "LocalClient"]


class LocalClient:
    """The client surface over an in-process coordinator (no HTTP).

    Lets agent threads and tests drive a :class:`FleetCoordinator`
    directly — same wire dataclasses, no sockets — so the hypothesis
    harness can kill agents at exact, replayable points.
    """

    def __init__(self, coordinator):
        self.coordinator = coordinator

    def register(self, name: str, host: str = "",
                 pid: int = 0) -> wire.RegisterResponse:
        return self.coordinator.register(
            wire.RegisterRequest(name=name, host=host, pid=pid))

    def heartbeat(self, agent_id: str) -> wire.HeartbeatResponse:
        return self.coordinator.heartbeat(
            wire.HeartbeatRequest(agent_id=agent_id))

    def lease(self, agent_id: str) -> wire.LeaseGrant:
        return self.coordinator.lease(wire.LeaseRequest(agent_id=agent_id))

    def release(self, agent_id: str, session_id: str, cell_index: int,
                epoch: int) -> wire.ResultAck:
        return self.coordinator.release(wire.LeaseRelease(
            agent_id=agent_id, session_id=session_id,
            cell_index=cell_index, epoch=epoch))

    def report(self, message: wire.ResultReport) -> wire.ResultAck:
        return self.coordinator.report(message)

    def status(self, session_id: str) -> wire.SessionStatus:
        status = self.coordinator.status(session_id)
        if status is None:
            raise CoordinatorUnavailable("no such session %r" % session_id)
        return status

    def cell_result(self, session_id: str, index: int) -> wire.ResultReport:
        report = self.coordinator.cell_result(session_id, index)
        if report is None:
            raise CoordinatorUnavailable(
                "cell %s/%d not settled" % (session_id, index))
        return report

    def roster(self) -> wire.Roster:
        return self.coordinator.roster()


class FleetAgent:
    """One worker: a lease loop plus a heartbeat thread."""

    def __init__(self, client, name: Optional[str] = None,
                 runner: Optional[Callable] = None, cache: bool = True,
                 cache_dir: Optional[str] = None, poll: float = 0.5,
                 stop_when_idle: bool = False, telemetry=None,
                 injector=None):
        from repro.harness.executor import run_spec

        self.client = client
        self.name = name or "agent-%s-%d" % (socket.gethostname(),
                                             os.getpid())
        self.runner = runner or run_spec
        self.cache_enabled = cache
        self.cache_dir = cache_dir
        self.poll = poll
        self.stop_when_idle = stop_when_idle
        self.telemetry = telemetry or NULL_TELEMETRY
        self.injector = injector
        self.agent_id: Optional[str] = None
        self.cells_done = 0
        self._store = None
        self._stop = threading.Event()
        self._heartbeat_interval = 5.0
        self._heartbeat_thread: Optional[threading.Thread] = None
        self._deaths = InjectedDeaths(injector, "fleet.agent")

    # -- lifecycle ---------------------------------------------------------

    def stop(self) -> None:
        self._stop.set()

    def _register(self) -> None:
        welcome = self.client.register(self.name,
                                       host=socket.gethostname(),
                                       pid=os.getpid())
        self.agent_id = welcome.agent_id
        self._heartbeat_interval = welcome.heartbeat_interval
        self.telemetry.counter("fleet.agent.registrations").inc()

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self._heartbeat_interval):
            try:
                answer = self.client.heartbeat(self.agent_id)
            except CoordinatorUnavailable:
                continue  # coordinator restarting; the loop retries
            if answer.expired:
                # We were swept for missed heartbeats: any lease we
                # still hold is fenced out. Rejoin under a new identity.
                self.telemetry.counter("fleet.agent.expired").inc()
                try:
                    self._register()
                except CoordinatorUnavailable:
                    pass

    def run(self) -> int:
        """The agent main loop; returns cells completed.

        Runs until :meth:`stop` (or, with ``stop_when_idle``, until the
        coordinator has no work). Transient coordinator outages back
        off and retry — agents outlive coordinator restarts.
        """
        self._register()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="%s-heartbeat" % self.name,
            daemon=True)
        self._heartbeat_thread.start()
        try:
            while not self._stop.is_set():
                try:
                    grant = self.client.lease(self.agent_id)
                except CoordinatorUnavailable:
                    if self._stop.wait(self.poll):
                        break
                    continue
                if grant.done:
                    # Swept registration: rejoin and retry the lease.
                    try:
                        self._register()
                    except CoordinatorUnavailable:
                        pass
                    continue
                if grant.idle:
                    if self.stop_when_idle:
                        break
                    if self._stop.wait(self.poll):
                        break
                    continue
                self._execute(grant)
        finally:
            self._stop.set()
            if self._heartbeat_thread is not None:
                self._heartbeat_thread.join(self._heartbeat_interval + 1.0)
        return self.cells_done

    # -- execution ---------------------------------------------------------

    def _result_store(self):
        if self._store is None and self.cache_enabled:
            from repro.harness.executor import ResultCache

            self._store = ResultCache(self.cache_dir,
                                      telemetry=self.telemetry,
                                      injector=self.injector)
        return self._store

    def _execute(self, grant: wire.LeaseGrant) -> None:
        if self._deaths.doomed((grant.session_id, grant.cell_index)):
            # Simulated crash: hand the lease back unexecuted. The
            # coordinator re-pends it without charging the retry budget
            # (the same lease-style policy as injected pool deaths).
            self.telemetry.counter("fleet.agent.doomed").inc()
            try:
                self.client.release(self.agent_id, grant.session_id,
                                    grant.cell_index, grant.epoch)
            except CoordinatorUnavailable:
                pass
            return
        spec = wire.unpack(grant.spec_blob)
        report = self._run_cell(spec, grant)
        try:
            ack = self.client.report(report)
        except CoordinatorUnavailable:
            return  # the lease will expire and another agent re-runs it
        if ack.accepted:
            self.cells_done += 1
            self.telemetry.counter("fleet.agent.cells").inc()
        else:
            # Fenced out (we are a zombie for this cell): nothing to do,
            # the re-leased run owns the result now.
            self.telemetry.counter("fleet.agent.fenced").inc()

    def _run_cell(self, spec: Any,
                  grant: wire.LeaseGrant) -> wire.ResultReport:
        store = self._result_store()
        key = spec.cache_key(self.runner) if store is not None else None
        if store is not None:
            hit = store.get(key)
            if hit is not None:
                return wire.ResultReport(
                    agent_id=self.agent_id, session_id=grant.session_id,
                    cell_index=grant.cell_index, epoch=grant.epoch,
                    outcome_blob=wire.pack(hit), from_cache=True)
        started = time.monotonic()
        try:
            outcome = self.runner(spec)
        except Exception as exc:  # noqa: BLE001 - shipped as a record
            self.telemetry.histogram("fleet.agent.cell_seconds").observe(
                time.monotonic() - started)
            return wire.ResultReport(
                agent_id=self.agent_id, session_id=grant.session_id,
                cell_index=grant.cell_index, epoch=grant.epoch,
                failure=CellFailure.from_exception(exc).to_dict())
        self.telemetry.histogram("fleet.agent.cell_seconds").observe(
            time.monotonic() - started)
        if store is not None:
            store.put(key, outcome)
        return wire.ResultReport(
            agent_id=self.agent_id, session_id=grant.session_id,
            cell_index=grant.cell_index, epoch=grant.epoch,
            outcome_blob=wire.pack(outcome))
