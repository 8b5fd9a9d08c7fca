"""The local process pool: cells fanned out on this machine.

:func:`execute_tasks` runs a list of :class:`Task`\\ s — campaign cells
from :mod:`repro.harness.executor`, relation-probe batches from
:mod:`repro.core.probes` — and returns one :class:`CellResult` per task,
ordered like the input regardless of completion order.

The pool keeps no retry state of its own. A
:class:`~repro.harness.leases.LeaseTable` (without heartbeat expiry)
holds every attempt, retry, timeout and failure, under the policy the
fleet coordinator applies too. One loop drives the table for both
shapes:

- ``workers=1`` runs each leased task in-process, with no budget;
- ``workers>1`` hands each leased task to one of at most ``workers``
  long-lived worker processes, each task under its budget
  (``Task.timeout``, else the pool-wide ``timeout``).

A worker is forked the first time a leased task finds no idle one, and
then serves task after task over a duplex pipe (:func:`_worker_loop`)
until the call ends: a fault-free call forks at most ``workers``
processes, and every task after a worker's first runs on pages the
worker already copied. Each task ends in one table transition: a
result goes to ``complete``; a raised exception (the worker stays) or
a worker that exits without a result goes to ``fail``; a death the
fault plane injected (a ``die`` order) goes to ``release``, which
refunds the attempt. The worker whose task the table reports as
overrun is killed; the next lease forks its replacement. When the call
returns or raises, idle workers are told to stop and joined, and busy
or lingering ones are terminated, so no worker outlives the call.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import CampaignInterrupted, HarnessError
from repro.faultplane import InjectedDeaths
from repro.harness.leases import Cell, CellFailure, LeaseTable
from repro.telemetry import NULL_TELEMETRY

#: The one holder of every lease in a pool's table.
_HOLDER = "pool"

#: What ``Connection.send`` can raise inside a worker (mirrors the
#: concrete-set treatment of ``UNPICKLE_ERRORS`` in :mod:`repro.cache`):
#: OSError/BrokenPipeError when the parent already closed or broke the
#: pipe, ValueError for a connection closed on this side, and
#: PicklingError/TypeError/AttributeError when the payload (e.g. an
#: exception holding unpicklable state) refuses to pickle. Anything else
#: is a real bug and must surface.
_PIPE_SEND_ERRORS = (OSError, ValueError, pickle.PicklingError,
                     TypeError, AttributeError)

#: What ``Connection.close`` can raise: only OS-level failures on an
#: already-broken or double-closed handle.
_PIPE_CLOSE_ERRORS = (OSError,)


@dataclass
class CellResult:
    """One task's execution record: outcome or failure, plus provenance."""

    index: int
    spec: Any
    outcome: Optional[Any] = None
    failure: Optional[CellFailure] = None
    from_cache: bool = False
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.outcome is not None


def _describe_spec(spec: Any) -> str:
    target = getattr(spec, "target", None)
    mode = getattr(spec, "mode", None)
    if target is not None and mode is not None:
        return "%s/%s" % (target, mode)
    if target is not None:
        return str(target)
    return type(spec).__name__


class ExecutorError(HarnessError):
    """Raised when a grid finished with failed cells."""

    def __init__(self, failed: Sequence[CellResult]):
        self.failed = list(failed)
        details = "; ".join(
            "cell %d (%s): %s" % (c.index, _describe_spec(c.spec), c.failure)
            for c in self.failed
        )
        super().__init__("%d cell(s) failed: %s" % (len(self.failed), details))


@dataclass
class Task:
    """One unit of pool work.

    Attributes:
        index: The slot results are keyed by (callers own the numbering).
        payload: The picklable argument handed to the runner.
        meta: Opaque caller bookkeeping (e.g. a cache key); never crosses
            the process boundary.
        timeout: Per-task wall-clock budget overriding the pool default
            (batched tasks scale their budget with batch size).
    """

    index: int
    payload: Any
    meta: Any = None
    timeout: Optional[float] = None


#: Seconds an idle worker waits for an order before checking that its
#: parent is still alive; an orphan (parent SIGKILLed) exits on the next
#: check instead of blocking on a pipe it holds both ends of.
_ORPHAN_CHECK_S = 1.0

#: Seconds to wait for a worker to exit before escalating from a stop
#: order to SIGTERM, and from SIGTERM to SIGKILL.
_STOP_GRACE_S = 5.0


def _worker_loop(runner: Callable, conn) -> None:
    """Worker process body: serve task orders until told to stop.

    An order is ``("run", payload)``, answered by exactly one
    ``("ok", runner(payload))`` or ``("error", CellFailure)`` message, or
    ``("die", None)``: the fault plane's doom, which closes the pipe and
    exits 173 with no reply. ``os._exit`` skips every cleanup hook, which
    is the point: the parent must observe exactly what a segfaulting or
    OOM-killed worker looks like. ``None``, a parent that hung up or a
    parent that died ends the loop.
    """
    parent = os.getppid()
    doomed = False
    try:
        while True:
            try:
                while not conn.poll(_ORPHAN_CHECK_S):
                    if os.getppid() != parent:
                        return
                order = conn.recv()
            except (EOFError, OSError):
                return
            if order is None:
                return
            kind, payload = order
            if kind == "die":
                doomed = True
                return
            try:
                conn.send(("ok", runner(payload)))
            except BaseException as exc:  # noqa: BLE001 - becomes a record
                try:
                    conn.send(("error", CellFailure.from_exception(exc)))
                except _PIPE_SEND_ERRORS:
                    # Unreportable failure (pipe gone or record
                    # unpicklable): exit silently; the parent records
                    # "worker-died".
                    return
    finally:
        try:
            conn.close()
        except _PIPE_CLOSE_ERRORS:
            # Broken/already-closed pipe; the process is exiting anyway.
            pass
        if doomed:
            os._exit(173)


def _run_here(runner: Callable, payload: Any):
    """The in-process launch: the message a worker would have sent."""
    try:
        return ("ok", runner(payload))
    except CampaignInterrupted:
        # An operator-initiated stop (SIGTERM/SIGINT with
        # checkpointing): retrying in-process would immediately resume
        # the campaign the operator is trying to stop, so the interrupt
        # propagates to the caller instead.
        raise
    except Exception as exc:  # noqa: BLE001 - converted to a record
        return ("error", CellFailure.from_exception(exc))


@dataclass
class _Worker:
    """One long-lived worker process and the parent's end of its pipe."""

    process: Any
    conn: Any


@dataclass
class _Running:
    """One leased cell and the worker running it."""

    cell: Cell
    worker: _Worker
    started: float
    injected: bool = False


def default_context():
    """Fork when available (cheap, inherits the import state), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def in_daemon_worker() -> bool:
    """True inside a daemonic pool worker, which cannot spawn children."""
    return multiprocessing.current_process().daemon


def execute_tasks(
    tasks: Sequence[Task],
    runner: Callable[[Any], Any],
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = 1,
    mp_context=None,
    telemetry=None,
    on_success: Optional[Callable[[Task, Any], None]] = None,
    metric_prefix: str = "executor",
    injector=None,
) -> List[CellResult]:
    """Run tasks, optionally across worker processes.

    Args:
        tasks: The work items, in the order results should come back.
        runner: Task body mapping ``task.payload`` to a result. Must be a
            picklable module-level callable for ``workers > 1``.
        workers: Max tasks in flight, and max worker processes alive at
            once. ``1`` runs in-process (identical results, no
            subprocesses, no timeout enforcement).
        timeout: Default per-task wall-clock budget in seconds (pooled
            only); ``Task.timeout`` overrides it per task.
        retries: How many times a failed task is re-run before its
            failure record becomes final. A retry runs on whichever
            worker is idle: the one a raise left serving, or the
            replacement of a worker that overran or died.
        telemetry: Optional :class:`repro.telemetry.Telemetry`; records
            ``<prefix>.task_seconds`` and ``<prefix>.retries``.
        on_success: Invoked as ``on_success(task, outcome)`` before the
            result is folded into the table (cache writes hook in here).
        metric_prefix: Namespace for the pool's telemetry instruments.
        injector: Optional :class:`repro.faultplane.FaultInjector`; an
            enabled plan may turn a launch into a ``die`` order, so the
            worker exits without shipping a result. The death releases
            the lease: the attempt is refunded and no pool metric
            observes it, so the exported counters never see the fault
            plane's weather.
            Ignored on the ``workers=1`` in-process path (there is no
            worker to kill).

    Returns:
        One :class:`CellResult` per task, ordered like ``tasks``
        regardless of completion order, each carrying the task's
        ``index``.
    """
    tele = telemetry or NULL_TELEMETRY
    inline = workers <= 1
    table = LeaseTable(cells=[
        Cell(index=i, payload=task, budget=None if inline
             else timeout if task.timeout is None else task.timeout)
        for i, task in enumerate(tasks)
    ], lease_ttl=None, retries=retries)
    running: Dict[int, _Running] = {}
    idle: List[_Worker] = []
    deaths = InjectedDeaths(None if inline else injector, "pool.worker")
    ctx = None if inline else (mp_context or default_context())

    def fold(cell: Cell, started: float, message) -> None:
        """One launch's result or observed failure into the table."""
        now = time.monotonic()
        tele.histogram(metric_prefix + ".task_seconds").observe(now - started)
        status, value = message
        if status == "ok":
            if on_success is not None:
                on_success(cell.payload, value)
            table.complete(_HOLDER, cell.index, cell.epoch, value, now)
        else:
            table.fail(_HOLDER, cell.index, cell.epoch, value, now)

    def start_worker() -> _Worker:
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(target=_worker_loop, args=(runner, child_conn),
                              daemon=True)
        process.start()
        child_conn.close()
        return _Worker(process=process, conn=parent_conn)

    def launch(cell: Cell) -> None:
        """Hand a leased cell to an idle worker, else to a new one."""
        doomed = deaths.doomed(cell.index)
        worker = idle.pop() if idle else start_worker()
        running[cell.index] = _Running(
            cell=cell, worker=worker, started=time.monotonic(),
            injected=doomed,
        )
        try:
            worker.conn.send(("die", None) if doomed
                             else ("run", cell.payload.payload))
        except OSError:
            # The worker died while idle: collect() reads its exit as
            # this launch's death.
            pass

    def collect(run: _Running) -> None:
        """Fold a worker that sent its reply or exited."""
        del running[run.cell.index]
        try:
            message = run.worker.conn.recv()
        except (EOFError, OSError):
            message = None
        if message is not None:
            idle.append(run.worker)
            fold(run.cell, run.started, message)
            return
        _stop(run.worker)
        if run.injected:
            table.release(_HOLDER, run.cell.index, run.cell.epoch,
                          time.monotonic())
            return
        exitcode = run.worker.process.exitcode
        fold(run.cell, run.started, ("error", CellFailure(
            kind="worker-died",
            message="worker exited without a result (exitcode %s)" % exitcode,
            exitcode=exitcode,
        )))

    try:
        while not table.done:
            while len(running) < max(1, workers):
                cell = table.lease(_HOLDER, time.monotonic())
                if cell is None:
                    break
                if inline:
                    started = time.monotonic()
                    fold(cell, started,
                         _run_here(runner, cell.payload.payload))
                else:
                    launch(cell)
            if not running:
                continue
            due = table.next_overrun()
            wait = None if due is None else max(0.0, due - time.monotonic())
            by_conn = {run.worker.conn: run for run in running.values()}
            for conn in mp_connection.wait(list(by_conn), timeout=wait):
                collect(by_conn[conn])
            for cell in table.overrun(time.monotonic()):
                run = running.pop(cell.index)
                _stop(run.worker, kill=True)
                tele.histogram(metric_prefix + ".task_seconds").observe(
                    time.monotonic() - run.started)
    finally:
        for worker in idle:
            try:
                worker.conn.send(None)
            except OSError:
                # It died while idle; _stop() reaps it all the same.
                pass
        for worker in idle:
            _stop(worker)
        for run in running.values():
            _stop(run.worker, kill=True)
    results = [
        CellResult(index=task.index, spec=task.payload, outcome=cell.outcome,
                   failure=cell.failure, attempts=cell.attempts)
        for task, cell in zip(tasks, table.cells)
    ]
    # Every attempt past a cell's first re-ran a charged failure.
    retried = sum(result.attempts - 1 for result in results)
    if retried:
        tele.counter(metric_prefix + ".retries").inc(retried)
    return results


def _stop(worker: _Worker, kill: bool = False) -> None:
    """Reap one worker: wait for it to exit (after a stop order or its
    own death), terminating it if it is busy (``kill``) or lingers."""
    process = worker.process
    if not kill:
        process.join(_STOP_GRACE_S)
    if process.is_alive():
        process.terminate()
        process.join(_STOP_GRACE_S)
    if process.is_alive():  # pragma: no cover - stuck in uninterruptible state
        process.kill()
        process.join(_STOP_GRACE_S)
    worker.conn.close()
