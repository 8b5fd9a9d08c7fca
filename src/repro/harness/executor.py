"""Multiprocess campaign executor: the evaluation grid, fanned out.

The paper's evaluation is a grid of independent campaign cells — subject
x fuzzer x repetition — each fully determined by a seed. This module
runs that grid across a pool of worker processes without giving up the
bit-for-bit determinism of the serial path:

- :class:`CampaignSpec` is the picklable description of one cell (target
  name, pit, mode name + kwargs, :class:`CampaignConfig`). Live objects
  — engines, namespaces, targets — are reconstructed *inside* the
  worker from the registries, so nothing unpicklable crosses the
  process boundary.
- :class:`CampaignOutcome` is the slim, serializable result shipped
  back: the coverage time series, the deduplicated bug ledger, and
  per-instance counters. :meth:`CampaignOutcome.to_result` rebuilds a
  :class:`CampaignResult` (without live instances) so every downstream
  consumer of the serial API keeps working.
- :func:`execute_specs` schedules cells onto the local process pool
  (:mod:`repro.harness.pool`) or the fleet: per-cell timeouts, bounded
  retries, structured :class:`CellFailure` records instead of a hung
  grid, results ordered by spec index regardless of completion order.
- :class:`ResultCache` memoises successful outcomes on disk under
  ``.cmfuzz-cache/`` keyed by a stable content hash of the spec, so
  re-running an expensive grid after an unrelated edit is free. The
  cache directory is validated eagerly: an unwritable
  ``$CMFUZZ_CACHE_DIR`` raises
  :class:`~repro.errors.CacheUnavailableError` before any cell runs.

``workers=1`` short-circuits to an in-process loop with identical
results (the golden-equivalence suite pins this down).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cache import (
    DEFAULT_CACHE_DIR,
    FaultTolerantStore,
    canonical_payload,
    default_cache_dir,
    validate_cache_dir,
)
from repro.harness.campaign import CampaignConfig, CampaignResult, run_campaign
from repro.harness.pool import (
    CellFailure,
    CellResult,
    ExecutorError,
    Task,
    execute_tasks,
)
from repro.harness.stats import TimeSeries
from repro.harness.supervisor import SupervisorEvent
from repro.targets.faults import BugLedger, CrashReport
from repro.telemetry import NULL_TELEMETRY

__all__ = [
    "CACHE_VERSION",
    "DEFAULT_CACHE_DIR",
    "CampaignOutcome",
    "CampaignSpec",
    "CellFailure",
    "CellResult",
    "ExecutorError",
    "InstanceStats",
    "ResultCache",
    "default_cache_dir",
    "execute_specs",
    "outcomes",
    "results",
    "run_spec",
    "specs_for_repeated",
]

#: Bumped whenever the outcome layout or the key derivation changes;
#: stale cache entries from older versions are treated as misses.
#: 5: CampaignConfig grew the checkpoint/resume knobs.
#: 6: CampaignConfig grew the io-chaos knobs.
CACHE_VERSION = 6


# ---------------------------------------------------------------------------
# Specs and outcomes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignSpec:
    """A picklable description of one experiment cell.

    Everything a worker needs to reconstruct the live campaign: the
    target and pit come from the registries by ``target`` name, the mode
    is instantiated as ``create_mode(mode, **mode_kwargs)``, and ``config``
    carries the seed that makes the run deterministic.
    """

    target: str
    mode: str
    mode_kwargs: Dict[str, Any] = field(default_factory=dict)
    config: CampaignConfig = field(default_factory=CampaignConfig)

    def cache_key(self, runner: Optional[Callable] = None) -> str:
        """Stable content hash of this spec (and a non-default runner)."""
        payload = {
            "version": CACHE_VERSION,
            "target": self.target,
            "mode": self.mode,
            "mode_kwargs": canonical_payload(self.mode_kwargs),
            "config": canonical_payload(self.config),
            "runner": None if runner in (None, run_spec) else canonical_payload(runner),
        }
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        )
        return digest.hexdigest()


@dataclass(frozen=True)
class InstanceStats:
    """Per-instance counters surviving the process boundary."""

    index: int
    coverage: int
    restarts: int
    config_mutations: int
    dead: bool
    group: Tuple[str, ...]
    assignment: Tuple[Tuple[str, Any], ...]
    quarantined: bool = False
    hangs: int = 0


@dataclass
class CampaignOutcome:
    """The slim serializable form of a campaign's results.

    Carries everything the evaluation consumes — the coverage series,
    the deduplicated bug ledger, iteration counts, per-instance counters
    — and none of the live engine/namespace state a
    :class:`CampaignResult` drags along.
    """

    mode: str
    target: str
    coverage_points: List[Tuple[float, float]]
    bug_entries: List[Tuple[CrashReport, int]]
    instance_stats: List[InstanceStats]
    startup_conflicts: int = 0
    iterations: int = 0
    supervisor_events: List[SupervisorEvent] = dataclasses.field(
        default_factory=list)
    #: Telemetry snapshot of the worker's campaign (None when disabled).
    metrics: Optional[Dict[str, Any]] = None

    @classmethod
    def from_result(cls, result: CampaignResult) -> "CampaignOutcome":
        return cls(
            mode=result.mode,
            target=result.target,
            coverage_points=result.coverage.points(),
            bug_entries=result.bugs.snapshot(),
            instance_stats=[
                InstanceStats(
                    index=instance.index,
                    coverage=instance.coverage,
                    restarts=instance.restarts,
                    config_mutations=instance.config_mutations,
                    dead=instance.dead,
                    group=tuple(instance.bundle.group),
                    assignment=tuple(sorted(instance.bundle.assignment.items())),
                    quarantined=instance.quarantined,
                    hangs=instance.hangs,
                )
                for instance in result.instances
            ],
            startup_conflicts=result.startup_conflicts,
            iterations=result.iterations,
            supervisor_events=list(result.supervisor_events),
            metrics=result.metrics,
        )

    def to_result(self) -> CampaignResult:
        """Rebuild a :class:`CampaignResult` (live instances excepted)."""
        coverage = TimeSeries()
        for t, v in self.coverage_points:
            coverage.record(t, v)
        return CampaignResult(
            mode=self.mode,
            target=self.target,
            coverage=coverage,
            bugs=BugLedger.from_snapshot(self.bug_entries),
            instances=[],
            startup_conflicts=self.startup_conflicts,
            iterations=self.iterations,
            supervisor_events=list(self.supervisor_events),
            metrics=self.metrics,
        )

    @property
    def final_coverage(self) -> int:
        return int(self.coverage_points[-1][1]) if self.coverage_points else 0


def run_spec(spec: CampaignSpec) -> CampaignOutcome:
    """Reconstruct one cell's live objects and run it (the worker body).

    Checkpointing specs (``checkpoint_every`` set) always run with
    ``resume=True``: a completed campaign deletes its checkpoint
    stream, so leftover state only exists when a previous worker died
    mid-cell — and then the retry continues the partial cell instead of
    rerunning it from scratch.
    """
    from repro.parallel import create_mode
    from repro.targets.registry import get_target

    entry = get_target(spec.target)
    config = spec.config
    if config.checkpoint_every is not None and not config.resume:
        config = dataclasses.replace(config, resume=True)
    result = run_campaign(
        entry.target_cls,
        entry.state_model(),
        create_mode(spec.mode, **dict(spec.mode_kwargs)),
        config,
    )
    return CampaignOutcome.from_result(result)


def specs_for_repeated(
    target: str,
    mode: str,
    repetitions: int,
    config: Optional[CampaignConfig] = None,
    mode_kwargs: Optional[Dict[str, Any]] = None,
) -> List[CampaignSpec]:
    """The spec grid matching :func:`run_repeated`'s seed schedule."""
    base = config or CampaignConfig()
    return [
        CampaignSpec(
            target=target,
            mode=mode,
            mode_kwargs=dict(mode_kwargs or {}),
            config=dataclasses.replace(base, seed=base.seed + repetition * 101),
        )
        for repetition in range(repetitions)
    ]


# ---------------------------------------------------------------------------
# Cell results
# ---------------------------------------------------------------------------


def outcomes(cells: Sequence[CellResult]) -> List[CampaignOutcome]:
    """Extract outcomes in spec order, raising if any cell failed."""
    failed = [cell for cell in cells if not cell.ok]
    if failed:
        raise ExecutorError(failed)
    return [cell.outcome for cell in cells]


def results(cells: Sequence[CellResult]) -> List[CampaignResult]:
    """Outcomes rebuilt as :class:`CampaignResult`, in spec order."""
    return [outcome.to_result() for outcome in outcomes(cells)]


# ---------------------------------------------------------------------------
# On-disk result cache
# ---------------------------------------------------------------------------


class ResultCache:
    """Pickle-per-key outcome cache under a cache directory.

    The key is a content hash of the spec, so the only invalidation rule
    is the spec itself changing (or :data:`CACHE_VERSION` bumping);
    unrelated source edits never invalidate entries. Writes are atomic
    (temp file + rename) so parallel writers cannot tear an entry.

    The directory is validated at construction: an unwritable root
    raises :class:`~repro.errors.CacheUnavailableError` immediately,
    with a ``--no-cache`` hint, instead of an opaque ``OSError`` after
    hours of campaigning. Mid-run I/O goes through a
    :class:`~repro.cache.FaultTolerantStore` instead: transient errors
    are retried, persistent failure degrades to an in-memory store for
    the rest of the grid, and corrupt entries are quarantined.
    """

    def __init__(self, root: Optional[str] = None, telemetry=None,
                 injector=None):
        self.root = validate_cache_dir(root or default_cache_dir())
        self.store = FaultTolerantStore("result", telemetry=telemetry,
                                        injector=injector)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key + ".pkl")

    def get(self, key: str) -> Optional[CampaignOutcome]:
        payload = self.store.load(self._path(key))
        if not isinstance(payload, dict):
            return None
        if payload.get("version") != CACHE_VERSION or payload.get("key") != key:
            return None
        outcome = payload.get("outcome")
        return outcome if isinstance(outcome, CampaignOutcome) else None

    def put(self, key: str, outcome: CampaignOutcome) -> None:
        self.store.store(
            self._path(key),
            {"version": CACHE_VERSION, "key": key, "outcome": outcome},
        )


# ---------------------------------------------------------------------------
# The grid front-end over the generic pool
# ---------------------------------------------------------------------------


def execute_specs(
    specs: Iterable[CampaignSpec],
    workers: int = 1,
    runner: Optional[Callable[[CampaignSpec], CampaignOutcome]] = None,
    cache: bool = False,
    cache_dir: Optional[str] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    mp_context=None,
    telemetry=None,
    io_injector=None,
    backend: Optional[str] = None,
    coordinator: Optional[str] = None,
) -> List[CellResult]:
    """Run a grid of campaign cells, optionally across worker processes.

    Args:
        specs: The cells, in the order results should come back.
        workers: Max cells in flight. ``1`` runs in-process (identical
            results, no subprocesses, no timeout enforcement).
        runner: Cell body; defaults to :func:`run_spec`. Must be a
            picklable module-level callable for ``workers > 1``.
        cache: Memoise successful outcomes on disk.
        cache_dir: Cache directory (default ``.cmfuzz-cache/``).
        timeout: Per-cell wall-clock budget in seconds per attempt (the
            pool with ``workers > 1``, and the fleet); an overrun cell
            is recorded or retried as a ``timeout``.
        retries: How many times a failed cell is re-run in a fresh
            worker before its failure record becomes final.
        telemetry: Optional :class:`repro.telemetry.Telemetry` recording
            grid-level metrics: per-cell wall time
            (``executor.task_seconds``), cache hits, retries, failures.
        io_injector: Optional :class:`repro.faultplane.FaultInjector`
            exercising the grid's own I/O: result-cache reads/writes
            run under its retry/degrade policy and launched workers may
            be doomed to die and be re-leased.
        backend: ``"local"`` (this module's process pool, the default)
            or ``"fleet"`` (dispatch through the
            :mod:`repro.fleet` control plane). ``None`` consults
            ``$CMFUZZ_EXECUTOR_BACKEND``. The fleet fold is by spec
            index, so both backends return byte-identical grids.
        coordinator: Fleet backend only: a running coordinator's URL.
            Omitted, an ephemeral in-process fleet (coordinator +
            ``workers`` agent threads) runs the grid and tears down.

    Returns:
        One :class:`CellResult` per spec, ordered like ``specs``
        regardless of completion order.

    Raises:
        CacheUnavailableError: When ``cache`` is enabled but the cache
            directory cannot be created or written.
        ValueError: Unknown ``backend`` name.
    """
    spec_list = list(specs)
    backend = backend or os.environ.get("CMFUZZ_EXECUTOR_BACKEND") or "local"
    if backend == "fleet":
        from repro.fleet import run_specs_fleet

        return run_specs_fleet(
            spec_list, coordinator=coordinator, workers=workers,
            runner=runner, cache=cache, cache_dir=cache_dir,
            timeout=timeout, retries=retries, telemetry=telemetry,
            io_injector=io_injector,
        )
    if backend != "local":
        raise ValueError("unknown executor backend %r (expected 'local' "
                         "or 'fleet')" % backend)
    runner = runner or run_spec
    tele = telemetry or NULL_TELEMETRY
    store = ResultCache(cache_dir, telemetry=tele,
                        injector=io_injector) if cache else None
    cells: List[Optional[CellResult]] = [None] * len(spec_list)
    tele.counter("executor.cells").inc(len(spec_list))

    tasks: List[Task] = []
    for index, spec in enumerate(spec_list):
        if store is not None:
            key = spec.cache_key(runner)
            hit = store.get(key)
            if hit is not None:
                cells[index] = CellResult(
                    index=index, spec=spec, outcome=hit, from_cache=True,
                )
                tele.counter("executor.cache_hits").inc()
                continue
            tasks.append(Task(index=index, payload=spec, meta=key))
        else:
            tasks.append(Task(index=index, payload=spec))

    on_success = None
    if store is not None:
        on_success = lambda task, outcome: store.put(task.meta, outcome)  # noqa: E731

    for result in execute_tasks(
        tasks, runner, workers=workers, timeout=timeout, retries=retries,
        mp_context=mp_context, telemetry=tele, on_success=on_success,
        metric_prefix="executor", injector=io_injector,
    ):
        cells[result.index] = result

    for cell in cells:
        if cell is not None and cell.failure is not None:
            tele.counter("executor.failures", kind=cell.failure.kind).inc()
    return [cell for cell in cells if cell is not None]
