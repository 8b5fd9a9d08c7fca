"""The campaign runner: drives N parallel instances for a simulated day.

Reproduces the paper's experimental loop: a mode (Peach / SPFuzz /
CMFuzz) sets up four isolated instances which fuzz for 24 simulated
hours; the harness tracks the global branch-coverage time series (the
union across instances), triages crashes into a deduplicated bug ledger,
and restarts crashed targets with the appropriate simulated downtime.

With ``checkpoint_every`` set the loop additionally persists its entire
state (one object graph: engines, RNG streams, corpus, bug ledger,
supervisor, scheduler cursors; its set-up part and corpus seeds written
once per checkpoint stream) at fixed simulated intervals, and
SIGTERM/SIGINT trigger one final checkpoint before
:class:`~repro.errors.CampaignInterrupted` unwinds the run; ``resume``
continues from the newest intact save and the finished campaign is
byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import dataclasses
import math
import signal
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.errors import (
    CampaignInterrupted,
    CheckpointError,
    HarnessError,
    StartupError,
    TargetHang,
)
from repro.faultplane import FaultInjector
from repro.fuzzing.statemodel import StateModel
from repro.fuzzing.strategies import MutationStrategy, RandomFieldStrategy
from repro.harness.simclock import CostModel, SimClock
from repro.harness.stats import TimeSeries
from repro.harness.supervisor import (
    InstanceSupervisor,
    SupervisorEvent,
    SupervisorPolicy,
)
from repro.netns.namespace import NamespaceManager
from repro.parallel.base import ParallelMode
from repro.parallel.instance import FuzzingInstance
from repro.targets.chaos import ChaosPolicy, chaos_wrapper
from repro.targets.faults import BugLedger, CrashReport, SanitizerFault
from repro.telemetry import Telemetry, TelemetryConfig


@dataclass
class CampaignConfig:
    """Knobs for one campaign run."""

    n_instances: int = 4
    duration_hours: float = 24.0
    seed: int = 0
    costs: CostModel = field(default_factory=CostModel)
    sample_interval: float = 600.0
    sync_interval: float = 600.0
    strategy_factory: Callable[[], MutationStrategy] = RandomFieldStrategy
    #: Fault-injection policy applied to every instance's target; None
    #: (the default) runs the target unmodified.
    chaos: Optional[ChaosPolicy] = None
    #: Seed of the chaos fault schedule (independent of the fuzzing seed
    #: so the same campaign can be replayed under different weather).
    chaos_seed: int = 0
    #: Supervision policy: backoff, quarantine, revival, watchdogs.
    supervisor: SupervisorPolicy = field(default_factory=SupervisorPolicy)
    #: Observability: None (the default) runs with the no-op telemetry,
    #: keeping campaigns bit-identical to the un-instrumented runner.
    telemetry: Optional[TelemetryConfig] = None
    #: Worker processes for the model-build probe fan-out (relation
    #: quantification). 1 (the default) probes serially in-process;
    #: inside a pooled campaign cell the value is forced back to serial
    #: because daemonic workers cannot spawn children.
    probe_workers: int = 1
    #: Memoise startup-probe outcomes in the content-addressed on-disk
    #: cache (``.cmfuzz-cache/probes/``); a warm cache rebuilds the
    #: relation model without a single target launch.
    probe_cache: bool = False
    #: Probe-cache root override (default ``$CMFUZZ_CACHE_DIR`` or
    #: ``.cmfuzz-cache/``).
    probe_cache_dir: Optional[str] = None
    #: Checkpoint the full campaign state every this many *simulated*
    #: seconds (``.cmfuzz-cache/checkpoints/``). None (the default)
    #: disables checkpointing and keeps the run byte-identical to the
    #: historic loop.
    checkpoint_every: Optional[float] = None
    #: Continue from the newest intact checkpoint when one exists;
    #: silently starts fresh otherwise, so ``resume=True`` is always
    #: safe to pass.
    resume: bool = False
    #: Checkpoint root override (default
    #: ``$CMFUZZ_CACHE_DIR/checkpoints`` or ``.cmfuzz-cache/checkpoints``).
    checkpoint_dir: Optional[str] = None
    #: How many checkpoints to retain per campaign; older blobs are
    #: pruned so corruption of the newest save still leaves fallbacks.
    checkpoint_keep: int = 3
    #: Probability in [0, 1] of injecting a fault into each of the
    #: harness's own I/O operations (caches, checkpoints, worker pool,
    #: telemetry sink) — the *infrastructure* counterpart of ``chaos``.
    #: 0.0 (the default) injects nothing and keeps every boundary
    #: bit-identical to the un-instrumented path. Faults may cost time,
    #: never results: exports are byte-identical at any level.
    io_chaos_level: float = 0.0
    #: Seed of the infrastructure fault schedule (independent of the
    #: fuzzing seed and of ``chaos_seed``).
    io_chaos_seed: int = 0
    #: Restore fail-fast I/O: retry exhaustion re-raises the original
    #: error instead of degrading (skip the checkpoint, fall back to an
    #: in-memory cache).
    strict_io: bool = False

    def __post_init__(self):
        if self.n_instances < 1:
            raise HarnessError("need at least one instance")
        if self.duration_hours <= 0:
            raise HarnessError("duration must be positive")
        if self.probe_workers < 1:
            raise HarnessError("need at least one probe worker")
        if self.checkpoint_every is not None and self.checkpoint_every <= 0:
            raise HarnessError("checkpoint interval must be positive")
        if self.checkpoint_keep < 1:
            raise HarnessError("need to keep at least one checkpoint")
        if not 0.0 <= self.io_chaos_level <= 1.0:
            raise HarnessError("io-chaos level must be in [0, 1], got %r"
                               % (self.io_chaos_level,))


@dataclass
class CampaignResult:
    """Everything a campaign produces."""

    mode: str
    target: str
    coverage: TimeSeries
    bugs: BugLedger
    instances: List[FuzzingInstance]
    startup_conflicts: int = 0
    iterations: int = 0
    #: Structured supervision log: restart/backoff/quarantine/revive/...
    supervisor_events: List[SupervisorEvent] = field(default_factory=list)
    #: MetricsRegistry.snapshot() of the campaign's telemetry; None when
    #: telemetry was disabled (so exports stay bit-identical).
    metrics: Optional[Dict[str, Any]] = None
    #: Fault-plane accounting (:meth:`FaultInjector.summary`) when
    #: io-chaos was enabled; None otherwise. Deliberately *not* part of
    #: the export schema — the weather is operational detail, and the
    #: exported results must not depend on it.
    io_faults: Optional[Dict[str, Any]] = None

    @property
    def final_coverage(self) -> int:
        return int(self.coverage.final_value)

    def unique_bug_count(self) -> int:
        return len(self.bugs)


class _ClockNow:
    """Picklable ``now_fn`` reading the campaign's simulated clock.

    A bound lambda would pin telemetry timestamps to the clock just as
    well, but lambdas cannot cross the checkpoint pickle boundary.
    """

    __slots__ = ("clock",)

    def __init__(self, clock):
        self.clock = clock

    def __call__(self) -> float:
        return self.clock.now


class _CampaignContext:
    """The state bag parallel modes interact with."""

    def __init__(self, target_cls, state_model: StateModel, config: CampaignConfig):
        self.target_cls = target_cls
        self.state_model = state_model
        self.n_instances = config.n_instances
        self.seed = config.seed
        self.costs = config.costs
        self.clock = SimClock()
        self.namespaces = NamespaceManager()
        self.instances: List[FuzzingInstance] = []
        self.bugs = BugLedger()
        self.startup_conflicts = 0
        #: Model-build probe scheduling knobs, consumed by modes that
        #: quantify relations (CMFuzz, hybrid).
        self.probe_workers = config.probe_workers
        self.probe_cache = config.probe_cache
        self.probe_cache_dir = config.probe_cache_dir
        #: Infrastructure fault injection (io-chaos). Built before the
        #: telemetry so the trace sink can consult it; disabled configs
        #: get a no-op injector whose wrappers still retry real errors.
        self.io_injector = FaultInjector.from_campaign_config(config)
        #: Campaign-wide telemetry; the shared no-op when not configured.
        self.telemetry = Telemetry.from_config(
            config.telemetry, now_fn=_ClockNow(self.clock),
            injector=self.io_injector if self.io_injector.enabled else None,
        )
        self.io_injector.telemetry = self.telemetry
        #: Set by run_campaign once the instances exist; modes may use it
        #: to quarantine instead of killing (graceful degradation).
        self.supervisor: Optional[InstanceSupervisor] = None
        self._strategy_factory = config.strategy_factory

    def make_strategy(self) -> MutationStrategy:
        return self._strategy_factory()

    def record_startup_fault(self, fault: SanitizerFault, instance: int) -> None:
        self.telemetry.counter("campaign.startup_faults").inc()
        self.bugs.record(
            CrashReport.from_fault(
                fault, self.target_cls.PROTOCOL,
                sim_time=self.clock.now, instance=instance,
            )
        )


def _safe_initial_start(ctx: _CampaignContext, instance: FuzzingInstance) -> None:
    """Boot an instance, degrading toward the default configuration.

    The initial bundle is built from first typical values, which embed the
    source defaults, so this almost always succeeds on the first try;
    conflicting groups shed keys until the target boots.
    """
    assignment = dict(instance.bundle.assignment)
    for _ in range(len(assignment) + 1):
        try:
            instance.restart(assignment)
            return
        except TargetHang:
            continue  # transient startup hang: retry the same assignment
        except StartupError as error:
            ctx.startup_conflicts += 1
            dropped = False
            for key in error.conflicting:
                if key in assignment:
                    del assignment[key]
                    dropped = True
            if not dropped and assignment:
                assignment.popitem()
        except SanitizerFault as fault:
            ctx.record_startup_fault(fault, instance=instance.index)
            if assignment:
                assignment.popitem()
    try:
        instance.restart({})
    except (StartupError, SanitizerFault, TargetHang) as error:
        # Even the default configuration refuses to boot. Pre-supervisor
        # this aborted the whole campaign; now the instance is handed to
        # the supervisor as quarantined and revival probes take over.
        if isinstance(error, SanitizerFault):
            ctx.record_startup_fault(error, instance=instance.index)
        if ctx.supervisor is not None:
            ctx.supervisor.quarantine(
                instance, ctx.clock.now,
                "default configuration failed at initial start",
            )
        else:
            instance.dead = True


@dataclass
class _LoopState:
    """The complete resumable state of one campaign's main loop.

    Checkpointing pickles this object — one graph, so every shared
    reference (engines' cached counters, the supervisor's view of the
    context, sync outboxes) is preserved with identity intact and the
    restored loop is indistinguishable from the uninterrupted one.
    """

    ctx: _CampaignContext
    mode: ParallelMode
    supervisor: InstanceSupervisor
    coverage: TimeSeries
    global_sites: Set[str]
    next_sample: float
    next_sync: float
    iterations: int = 0
    sync_rounds: int = 0


class _InterruptWatch:
    """Latches SIGTERM/SIGINT while a checkpointing campaign runs.

    The handler only records the signal; the loop notices the latch at
    its next iteration boundary, writes a final checkpoint and raises
    :class:`CampaignInterrupted`. Installed only on the main thread
    (signal handlers cannot be set elsewhere) and only when
    checkpointing is active, so non-checkpointing campaigns keep the
    default Ctrl-C behaviour.
    """

    def __init__(self, active: bool):
        self.active = active
        self.signum: Optional[int] = None
        self._previous = []

    @property
    def triggered(self) -> bool:
        return self.signum is not None

    def _handle(self, signum, frame) -> None:
        self.signum = signum

    def __enter__(self) -> "_InterruptWatch":
        if self.active and threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGTERM, signal.SIGINT):
                self._previous.append((signum, signal.signal(signum, self._handle)))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for signum, previous in self._previous:
            signal.signal(signum, previous)
        self._previous = []


def _fresh_state(target_cls, state_model: StateModel, mode: ParallelMode,
                 config: CampaignConfig) -> _LoopState:
    """Build the campaign's instances and pre-loop accounting."""
    ctx = _CampaignContext(target_cls, state_model, config)
    telemetry = ctx.telemetry
    with telemetry.span("campaign.setup", mode=mode.name,
                        target=target_cls.NAME):
        ctx.instances = mode.create_instances(ctx)
    share_seeds = mode.synchronizer is not None
    chaos = config.chaos is not None and config.chaos.enabled
    for instance in ctx.instances:
        instance.share_seeds = share_seeds
        if chaos:
            instance.target_wrapper = chaos_wrapper(
                config.chaos, config.chaos_seed, instance.index
            )
    supervisor = InstanceSupervisor(ctx, mode, config.supervisor)
    ctx.supervisor = supervisor
    for instance in ctx.instances:
        _safe_initial_start(ctx, instance)

    coverage = TimeSeries()
    global_sites: Set[str] = set()
    for instance in ctx.instances:
        global_sites.update(instance.collector.total)
    coverage.record(ctx.clock.now, len(global_sites))
    return _LoopState(
        ctx=ctx,
        mode=mode,
        supervisor=supervisor,
        coverage=coverage,
        global_sites=global_sites,
        next_sample=ctx.clock.now + config.sample_interval,
        next_sync=ctx.clock.now + config.sync_interval,
    )


def _save_checkpoint(store, state: _LoopState,
                     reason: str) -> Optional[str]:
    """One atomic checkpoint plus its operational telemetry.

    A failed save (retries exhausted at the fault plane, or a real
    persistent I/O error) is skipped-and-continued: losing one
    checkpoint only costs resume granularity, never results, so it must
    not abort hours of campaigning. ``strict_io`` restores the
    fail-fast behaviour. Returns the blob path, or ``None`` when the
    save was skipped.
    """
    ctx = state.ctx
    telemetry = ctx.telemetry
    state_model = ctx.state_model
    # Set-up objects and corpus seeds are immutable: the store writes
    # each once per stream and references it from later saves. An
    # outbox holds corpus objects, and seeds evicted from the corpus
    # while still queued.
    base = [state_model, *state_model.data_models(),
            *state.mode.setup_objects()]
    seeds = []
    for instance in ctx.instances:
        if instance.engine is not None:
            seeds += instance.engine.corpus
            seeds += instance.engine.sync_outbox
    try:
        path = store.save(state, sim_time=ctx.clock.now,
                          iterations=state.iterations, base=base,
                          seeds=seeds)
    except CheckpointError:
        if ctx.io_injector.strict:
            raise
        telemetry.counter("checkpoint.skipped", reason=reason).inc()
        telemetry.event("checkpoint.skipped", reason=reason,
                        iterations=state.iterations)
        return None
    telemetry.counter("checkpoint.saves", reason=reason).inc()
    telemetry.event("checkpoint.save", reason=reason,
                    iterations=state.iterations)
    return path


#: Metric namespaces excluded from the exported snapshot: they depend
#: on *when* a campaign was killed/resumed or on which infrastructure
#: faults the weather injected — exactly what the byte-identical-export
#: invariant must not depend on.
_OPERATIONAL_PREFIXES = ("checkpoint.", "faultplane.", "cache.",
                         "telemetry.")


def _strip_operational_metrics(metrics: Optional[Dict[str, Any]]):
    """Drop operational series from an exported snapshot.

    Checkpoint, fault-plane, cache-health and sink-drop counters vary
    with kill timing and injected I/O weather; they stay visible in
    traces and the live registry, and only the deterministic export
    snapshot omits them.
    """
    if not metrics:
        return metrics
    for kind in ("counters", "gauges", "histograms"):
        series = metrics.get(kind)
        if isinstance(series, dict):
            metrics[kind] = {
                key: value for key, value in series.items()
                if not key.startswith(_OPERATIONAL_PREFIXES)
            }
    return metrics


def _drive(state: _LoopState, config: CampaignConfig, store=None,
           abort_hook: Optional[Callable[[int, float], bool]] = None,
           ) -> CampaignResult:
    """Run the (possibly restored) loop state to the horizon."""
    ctx = state.ctx
    mode = state.mode
    supervisor = state.supervisor
    target_cls = ctx.target_cls
    telemetry = ctx.telemetry
    coverage = state.coverage
    global_sites = state.global_sites
    horizon = config.duration_hours * 3600.0
    g_global_sites = telemetry.gauge("campaign.global_sites")
    g_sim_time = telemetry.gauge("campaign.sim_time")
    c_sync_rounds = telemetry.counter("campaign.sync_rounds")
    c_samples = telemetry.counter("campaign.samples")

    every = config.checkpoint_every
    next_checkpoint: Optional[float] = None
    if store is not None and every is not None:
        # Recomputed from simulated time, not carried in the state, so
        # a resumed loop lands on the same grid as an uninterrupted one.
        next_checkpoint = (math.floor(ctx.clock.now / every) + 1) * every

    with _InterruptWatch(store is not None) as watch:
        while ctx.clock.now < horizon:
            aborted = watch.triggered or (
                abort_hook is not None
                and abort_hook(state.iterations, ctx.clock.now)
            )
            if aborted:
                path = None
                if store is not None:
                    path = _save_checkpoint(store, state, reason="interrupt")
                saved = ("state saved" if path is not None else
                         "final save skipped, resume continues from the "
                         "last good checkpoint")
                raise CampaignInterrupted(
                    "campaign interrupted at %.0f simulated seconds "
                    "(%d iterations); %s — rerun with resume=True "
                    "(--resume) to continue"
                    % (ctx.clock.now, state.iterations, saved),
                    checkpoint_path=path,
                    sim_time=ctx.clock.now,
                    iterations=state.iterations,
                )
            if next_checkpoint is not None and ctx.clock.now >= next_checkpoint:
                _save_checkpoint(store, state, reason="periodic")
                while next_checkpoint <= ctx.clock.now:
                    next_checkpoint += every
            now = ctx.clock.now
            supervisor.poll(now)
            for instance in ctx.instances:
                if not instance.available(now):
                    continue
                result = instance.step()
                state.iterations += 1
                if result.new_sites:
                    global_sites.update(result.new_sites)
                mode.after_iteration(ctx, instance, result)
                if result.hung:
                    supervisor.handle_hang(instance, now)
                    continue
                supervisor.observe(instance, result, now)
                if result.fault:
                    ctx.bugs.record(
                        CrashReport.from_fault(
                            result.fault, target_cls.PROTOCOL,
                            sim_time=now, instance=instance.index,
                        )
                    )
                    supervisor.handle_crash(instance, now)
            ctx.clock.advance(config.costs.iteration)
            if ctx.clock.now >= state.next_sample:
                # The last iteration can overshoot the horizon; the curve
                # must not extend past it (the closing record(horizon)
                # below would then violate time ordering).
                coverage.record(min(ctx.clock.now, horizon),
                                len(global_sites))
                c_samples.inc()
                g_global_sites.set(len(global_sites))
                g_sim_time.set(ctx.clock.now)
                state.next_sample += config.sample_interval
            if ctx.clock.now >= state.next_sync:
                state.sync_rounds += 1
                c_sync_rounds.inc()
                with telemetry.span("campaign.sync", round=state.sync_rounds):
                    mode.on_sync(ctx)
                state.next_sync += config.sync_interval

    coverage.record(horizon, len(global_sites))
    g_global_sites.set(len(global_sites))
    g_sim_time.set(horizon)
    ctx.namespaces.destroy_all()
    if store is not None:
        # A completed campaign has nothing to resume; a surviving
        # checkpoint directory therefore always means "interrupted".
        store.clear()
    metrics = telemetry.snapshot() if telemetry.enabled else None
    metrics = _strip_operational_metrics(metrics)
    telemetry.close()
    injector = ctx.io_injector
    return CampaignResult(
        mode=mode.name,
        target=target_cls.NAME,
        coverage=coverage,
        bugs=ctx.bugs,
        instances=ctx.instances,
        startup_conflicts=ctx.startup_conflicts,
        iterations=state.iterations,
        supervisor_events=supervisor.events,
        metrics=metrics,
        io_faults=injector.summary() if injector.enabled else None,
    )


def run_campaign(
    target_cls,
    state_model: StateModel,
    mode: ParallelMode,
    config: Optional[CampaignConfig] = None,
    abort_hook: Optional[Callable[[int, float], bool]] = None,
) -> CampaignResult:
    """Run one parallel fuzzing campaign and return its results.

    With ``config.checkpoint_every`` set, the loop state is persisted
    every that-many simulated seconds and on SIGTERM/SIGINT (which then
    raise :class:`~repro.errors.CampaignInterrupted`);
    ``config.resume=True`` continues from the newest intact checkpoint
    when one exists. ``abort_hook(iterations, sim_time) -> bool`` is a
    test seam triggering the same interrupt path deterministically.

    ``mode`` is either a :class:`~repro.parallel.base.ParallelMode`
    instance or a registered mode name resolved through
    :mod:`repro.parallel.registry` with default arguments.
    """
    if isinstance(mode, str):
        from repro.parallel.registry import create_mode

        mode = create_mode(mode)
    config = config or CampaignConfig()
    store = None
    if config.checkpoint_every is not None or config.resume:
        from repro.harness.checkpoint import CheckpointStore, campaign_key

        # The campaign's injector only exists once the context does;
        # checkpoint loads performed before then run under a bootstrap
        # injector with the same plan, whose accounting is merged into
        # the campaign's once the state is ready.
        store = CheckpointStore(
            campaign_key(target_cls.NAME, mode.name, config),
            root=config.checkpoint_dir,
            keep=config.checkpoint_keep,
            injector=FaultInjector.from_campaign_config(config),
        )
    state = None
    if store is not None and config.resume:
        payload = store.load_latest()
        if payload is not None:
            state = payload.state
            telemetry = state.ctx.telemetry
            telemetry.counter("checkpoint.resumes").inc()
            telemetry.event("checkpoint.resume", sequence=payload.sequence,
                            iterations=payload.iterations)
    if state is None:
        state = _fresh_state(target_cls, state_model, mode, config)
    if store is not None:
        # One canonical injector per campaign: fold the bootstrap
        # loads' accounting in, point the store (and, after a restore,
        # the reopened trace sink) at the campaign's injector.
        injector = state.ctx.io_injector
        injector.absorb(store.injector)
        store.injector = injector
        sink = state.ctx.telemetry.sink
        if sink is not None and injector.enabled:
            sink.injector = injector
    return _drive(state, config, store=store, abort_hook=abort_hook)


def run_repeated(
    target_cls,
    state_model_factory: Callable[[], StateModel],
    mode_factory: Callable[[], ParallelMode],
    repetitions: int = 5,
    config: Optional[CampaignConfig] = None,
) -> List[CampaignResult]:
    """Repeat a campaign with distinct seeds (the paper runs five)."""
    base = config or CampaignConfig()
    results = []
    for repetition in range(repetitions):
        rep_config = dataclasses.replace(base, seed=base.seed + repetition * 101)
        results.append(
            run_campaign(target_cls, state_model_factory(), mode_factory(), rep_config)
        )
    return results
