"""Startup-probe execution: in-process, pooled, and content-addressed-cached.

Phase 1 of the model-build pipeline (relation quantification, §III-B1)
is dominated by startup probes: every pair of mutable entities launches
the target across its value combinations. This module turns those
launches into a first-class, schedulable workload:

- :class:`ProbeBatch` is the picklable description of a chunk of probes
  (target registry name + assignments); :func:`run_probe_batch` is the
  worker body that reconstructs the target and runs them.
- :class:`LocalProbeExecutor` runs probes in-process against any
  :data:`~repro.core.relation.StartupProbe` callable.
- :class:`PooledProbeExecutor` fans chunks out across the generic
  process pool (:mod:`repro.harness.pool`), reusing its per-task
  timeout / bounded-retry / :class:`~repro.harness.pool.CellFailure`
  machinery.
- :class:`ProbeCache` memoises probe outcomes on disk under
  ``.cmfuzz-cache/probes/``, keyed by a sha256 of the target id and the
  sorted configuration values, with its own :data:`PROBE_CACHE_VERSION`;
  :class:`CachedProbeExecutor` layers it over either executor.

All executors share one contract: ``run(assignments)`` returns one
:class:`ProbeOutcome` per assignment, in order, and maintains a
``stats`` dict (``executed`` / ``cache_hits``) the quantifier folds into
telemetry. Sanitizer faults raised during startup are carried *inside*
the outcome (as picklable tuples) so they survive both the process
boundary and the cache, and replay identically on warm rebuilds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache import (
    KeyedCache,
    default_cache_dir,
)
from repro.errors import StartupError

#: Bumped whenever the probe outcome layout or key derivation changes;
#: stale entries from older versions are treated as misses.
PROBE_CACHE_VERSION = 1

#: Subdirectory of the cache root holding probe outcomes.
PROBE_CACHE_SUBDIR = "probes"

#: A serialized sanitizer fault: (kind value, function, detail).
FaultTuple = Tuple[str, str, str]


@dataclass(frozen=True)
class ProbeOutcome:
    """The portable result of one startup probe.

    Attributes:
        sites: Branch sites covered during startup (empty on failure).
        failed: True when the assignment prevented startup.
        faults: Sanitizer faults raised during startup, serialized as
            ``(kind, function, detail)`` tuples so the outcome stays
            picklable and cacheable.
    """

    sites: frozenset = frozenset()
    failed: bool = False
    faults: Tuple[FaultTuple, ...] = ()

    @property
    def branches(self) -> int:
        return 0 if self.failed else len(self.sites)


def serialize_fault(fault) -> FaultTuple:
    """Flatten a :class:`~repro.targets.faults.SanitizerFault`."""
    return (fault.kind.value, fault.function, fault.detail)


def deserialize_fault(entry: FaultTuple):
    """Rebuild a live :class:`SanitizerFault` from its tuple form."""
    from repro.targets.faults import FaultKind, SanitizerFault

    kind, function, detail = entry
    return SanitizerFault(FaultKind(kind), function, detail)


def assignment_items(assignment: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Canonical, hashable form of a probe assignment (sorted by name)."""
    return tuple(sorted(assignment.items(), key=lambda kv: kv[0]))


def probe_key(target_id: str, assignment: Dict[str, Any]) -> str:
    """Content address of one probe: sha256 of target id + sorted values."""
    payload = {
        "version": PROBE_CACHE_VERSION,
        "target": target_id,
        "values": [[name, repr(value)]
                   for name, value in assignment_items(assignment)],
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# The picklable worker body
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeBatch:
    """A picklable chunk of startup probes against one registry target.

    Attributes:
        target: Target registry name (e.g. ``"dnsmasq"``); the worker
            reconstructs the class via :func:`repro.targets.get_target`.
        assignments: One canonical item-tuple per probe.
        startup_latency: Simulated per-probe startup cost in seconds —
            models the process-spawn latency of probing a real SUT
            (benchmarks use it; production paths leave it at 0).
    """

    target: str
    assignments: Tuple[Tuple[Tuple[str, Any], ...], ...]
    startup_latency: float = 0.0


def run_probe_batch(batch: ProbeBatch) -> List[ProbeOutcome]:
    """Worker body: rebuild the target's probe and run one chunk."""
    from repro.targets.base import startup_probe_for
    from repro.targets.registry import get_target

    fault_log: List = []
    probe = startup_probe_for(get_target(batch.target).target_cls,
                              on_fault=fault_log.append)
    executor = LocalProbeExecutor(probe, fault_log=fault_log,
                                  startup_latency=batch.startup_latency)
    return executor.run([dict(items) for items in batch.assignments])


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------


class LocalProbeExecutor:
    """Runs probes serially, in-process, against any probe callable.

    The probe receives each assignment itself, not a copy. Equal
    fault-free startups share one :class:`ProbeOutcome` when the probe
    returns a ``frozenset`` (as :func:`repro.targets.base.startup_probe_for`
    does, one shared set per distinct startup); any other iterable gets
    an outcome of its own.

    Args:
        probe: The startup probe.
        fault_log: The list the probe's ``on_fault`` callback appends
            to; when given, faults are drained into outcomes (so they
            can be cached and replayed). When omitted, whatever the
            probe does with faults happens during execution.
        startup_latency: Simulated per-probe startup cost (benchmarks).
    """

    def __init__(self, probe: Callable[[Dict[str, Any]], Any],
                 fault_log: Optional[List] = None,
                 startup_latency: float = 0.0):
        self.probe = probe
        self.fault_log = fault_log
        self.startup_latency = startup_latency
        self.stats: Dict[str, int] = {"executed": 0, "cache_hits": 0}
        #: Each distinct fault-free site set -> its one shared outcome.
        self._outcomes: Dict[frozenset, ProbeOutcome] = {}

    def run(self, assignments: Sequence[Dict[str, Any]]) -> List[ProbeOutcome]:
        probe, fault_log = self.probe, self.fault_log
        startup_latency = self.startup_latency
        shared = self._outcomes
        outcomes: List[ProbeOutcome] = []
        for assignment in assignments:
            before = len(fault_log) if fault_log is not None else 0
            if startup_latency > 0:
                time.sleep(startup_latency)
            try:
                coverage = probe(assignment)
            except StartupError:
                faults: Tuple[FaultTuple, ...] = ()
                if fault_log is not None:
                    faults = tuple(serialize_fault(f)
                                   for f in fault_log[before:])
                outcomes.append(ProbeOutcome(failed=True, faults=faults))
                continue
            if type(coverage) is frozenset:
                outcome = shared.get(coverage)
                if outcome is None:
                    outcome = shared[coverage] = ProbeOutcome(sites=coverage)
            else:
                outcome = ProbeOutcome(sites=frozenset(coverage))
            outcomes.append(outcome)
        self.stats["executed"] += len(outcomes)
        return outcomes


class PooledProbeExecutor:
    """Fans probe chunks out across the generic process pool.

    Each chunk becomes one :class:`~repro.harness.pool.Task` whose
    deadline scales with the chunk size (``timeout`` is per probe).
    A chunk whose every retry raised is re-run inline so the underlying
    exception surfaces with its real traceback instead of a flattened
    :class:`CellFailure` string. A chunk that last timed out or killed
    its worker is not: re-running it inline would hang or kill the
    caller, so :class:`~repro.harness.pool.ExecutorError` carries its
    failure record instead.

    Args:
        target: Target registry name.
        workers: Worker processes (chunks in flight).
        timeout: Per-probe wall-clock budget in seconds.
        retries: Failed-chunk retries (on the pool's next idle worker).
        chunks: Number of chunks to split the assignment list into
            (default: ``workers``, one even share per worker).
    """

    def __init__(self, target: str, workers: int = 2,
                 timeout: Optional[float] = None, retries: int = 1,
                 chunks: Optional[int] = None, mp_context=None,
                 telemetry=None, startup_latency: float = 0.0,
                 injector=None):
        if workers < 1:
            raise ValueError("need at least one worker, got %d" % workers)
        self.target = target
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.chunks = chunks
        self.mp_context = mp_context
        self.telemetry = telemetry
        self.startup_latency = startup_latency
        self.injector = injector
        self.stats: Dict[str, int] = {"executed": 0, "cache_hits": 0}

    def run(self, assignments: Sequence[Dict[str, Any]]) -> List[ProbeOutcome]:
        from repro.harness.pool import ExecutorError, Task, execute_tasks

        if not assignments:
            return []
        items = [assignment_items(a) for a in assignments]
        n_chunks = max(1, min(self.chunks or self.workers, len(items)))
        per_chunk = int(math.ceil(len(items) / n_chunks))
        tasks = []
        for index, start in enumerate(range(0, len(items), per_chunk)):
            chunk = tuple(items[start:start + per_chunk])
            tasks.append(Task(
                index=index,
                payload=ProbeBatch(target=self.target, assignments=chunk,
                                   startup_latency=self.startup_latency),
                timeout=(self.timeout * len(chunk)
                         if self.timeout is not None else None),
            ))
        results = execute_tasks(
            tasks, run_probe_batch, workers=self.workers,
            retries=self.retries, mp_context=self.mp_context,
            telemetry=self.telemetry, metric_prefix="modelbuild.pool",
            injector=self.injector,
        )
        lost = [result for result in results
                if not result.ok and result.failure.kind != "exception"]
        if lost:
            raise ExecutorError(lost)
        outcomes: List[ProbeOutcome] = []
        for result in results:
            if result.ok:
                outcomes.extend(result.outcome)
            else:
                # The chunk raised on every attempt: reproduce it inline
                # so the caller sees the true exception.
                outcomes.extend(run_probe_batch(result.spec))
        self.stats["executed"] += len(outcomes)
        return outcomes


class ProbeCache(KeyedCache):
    """Content-addressed probe outcomes under ``.cmfuzz-cache/probes/``.

    One pickle per probe, keyed by :func:`probe_key` — sha256 of the
    target id and the sorted configuration values — so identical
    value-combination launches are never repeated across runs, targets
    never collide, and a :data:`PROBE_CACHE_VERSION` bump invalidates
    everything at once. Writes are atomic (temp + rename) so parallel
    model builds cannot tear an entry. I/O runs through a
    :class:`~repro.cache.FaultTolerantStore`: transient errors retry,
    persistent failure degrades to in-memory, corrupt entries are
    quarantined instead of silently counting as misses.
    """

    outcome_type = ProbeOutcome

    def __init__(self, root: Optional[str] = None, telemetry=None,
                 injector=None):
        super().__init__(
            os.path.join(root or default_cache_dir(), PROBE_CACHE_SUBDIR),
            "probe", telemetry=telemetry, injector=injector)

    @property
    def version(self) -> int:
        return PROBE_CACHE_VERSION


class CachedProbeExecutor:
    """Layers a :class:`ProbeCache` over another executor.

    Hits come straight from disk; misses go to the inner executor and
    are stored. ``stats`` aggregates its own hits with the inner
    executor's execution counts.
    """

    def __init__(self, inner, target_id: str,
                 cache: Optional[ProbeCache] = None):
        self.inner = inner
        self.target_id = target_id
        self.cache = cache or ProbeCache()
        self._hits = 0

    @property
    def stats(self) -> Dict[str, int]:
        merged = dict(self.inner.stats)
        merged["cache_hits"] = merged.get("cache_hits", 0) + self._hits
        return merged

    def run(self, assignments: Sequence[Dict[str, Any]]) -> List[ProbeOutcome]:
        keys = [probe_key(self.target_id, a) for a in assignments]
        outcomes: List[Optional[ProbeOutcome]] = [
            self.cache.get(key) for key in keys
        ]
        self._hits += sum(1 for o in outcomes if o is not None)
        misses = [i for i, o in enumerate(outcomes) if o is None]
        if misses:
            fresh = self.inner.run([assignments[i] for i in misses])
            for i, outcome in zip(misses, fresh):
                self.cache.put(keys[i], outcome)
                outcomes[i] = outcome
        return outcomes  # type: ignore[return-value]


def build_probe_executor(
    target_id: str,
    workers: int = 1,
    cache: bool = False,
    cache_dir: Optional[str] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    mp_context=None,
    telemetry=None,
    startup_latency: float = 0.0,
    injector=None,
):
    """Wire up the executor stack for one target's model build.

    Chooses pooled vs local execution, honours the content-addressed
    probe cache, and degrades gracefully: inside a daemonic pool worker
    (a campaign cell already running under :func:`execute_specs`) child
    processes are forbidden, so the pooled path silently falls back to
    in-process probing rather than crashing the campaign.

    Args:
        target_id: Target registry name (in-process probes are built
            from its entry); also the cache-key namespace.
        workers: Probe worker processes; ``1`` stays in-process.
        cache: Enable the on-disk probe cache.
        cache_dir: Cache root override (default ``.cmfuzz-cache/``).
        startup_latency: Simulated per-probe startup cost in seconds.
        injector: Optional :class:`repro.faultplane.FaultInjector`
            governing the probe cache's I/O and pooled worker deaths.

    Raises:
        CacheUnavailableError: When ``cache`` is enabled but the cache
            directory is unusable.
    """
    from repro.harness.pool import in_daemon_worker

    if workers > 1 and not in_daemon_worker():
        executor = PooledProbeExecutor(
            target_id, workers=workers, timeout=timeout, retries=retries,
            mp_context=mp_context, telemetry=telemetry,
            startup_latency=startup_latency, injector=injector,
        )
    else:
        from repro.targets.base import startup_probe_for
        from repro.targets.registry import get_target

        fault_log: List = []
        probe = startup_probe_for(get_target(target_id).target_cls,
                                  on_fault=fault_log.append)
        executor = LocalProbeExecutor(probe, fault_log=fault_log,
                                      startup_latency=startup_latency)
    if cache:
        executor = CachedProbeExecutor(
            executor, target_id,
            cache=ProbeCache(cache_dir, telemetry=telemetry,
                             injector=injector))
    return executor
