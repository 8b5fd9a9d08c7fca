"""CMFuzz: configuration model identification and scheduling.

The full pipeline of the paper, executed when the campaign starts:

1. **Identification** — Algorithm 1 extracts configuration items from the
   target's CLI/file sources; each becomes a 4-tuple entity.
2. **Quantification** — every pair of mutable entities is startup-probed
   across its value combinations; peak startup coverage becomes the
   relation weight (zero everywhere -> no edge). Probe time is charged to
   the simulated clock: CMFuzz pays its setup cost honestly.
3. **Allocation** — Algorithm 2 groups entities cohesively, one group per
   instance; each instance reassembles its group into a runtime
   configuration.
4. **Adaptive mutation** — when an instance's coverage saturates, one of
   its MUTABLE entities moves to a different typical value and the target
   restarts under the new configuration (restart cost charged). Startup
   crashes observed here are recorded as configuration-triggered bugs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.allocation import AllocationResult, allocate
from repro.core.extraction import extract_entities
from repro.core.model import ConfigurationModel
from repro.core.mutation import ConfigMutator, GuidedConfigMutator, SaturationDetector
from repro.core.probes import build_probe_executor
from repro.core.reassembly import ConfigBundle, reassemble_group
from repro.core.relation import RelationQuantifier
from repro.errors import StartupError, TargetHang
from repro.fuzzing.engine import FuzzEngine
from repro.parallel.base import ParallelMode
from repro.parallel.instance import FuzzingInstance
from repro.parallel.registry import register_mode
from repro.targets.faults import SanitizerFault
from repro.telemetry import NULL_TELEMETRY


class _EngineFactory:
    """Picklable per-instance engine builder (checkpoints pickle the
    instances, factories included, so closures are off the table)."""

    def __init__(self, ctx, seed: int, index: int):
        self.ctx = ctx
        self.seed = seed
        self.index = index

    def __call__(self, transport, collector) -> FuzzEngine:
        ctx = self.ctx
        return FuzzEngine(
            ctx.state_model, transport, collector,
            strategy=ctx.make_strategy(), seed=self.seed,
            telemetry=getattr(ctx, "telemetry", None),
            labels={"instance": self.index},
        )


class CmFuzzMode(ParallelMode):
    """Relation-aware configuration scheduling over parallel instances."""

    name = "cmfuzz"

    def __init__(
        self,
        saturation_window: float = 3600.0,
        max_combinations: int = 16,
        aggregate: str = "max",
        allocator=allocate,
        adaptive_mutation: bool = True,
        guided_mutation: bool = False,
    ):
        self.saturation_window = saturation_window
        self.max_combinations = max_combinations
        self.aggregate = aggregate
        self.allocator = allocator
        self.adaptive_mutation = adaptive_mutation
        self.guided_mutation = guided_mutation
        self._coverage_at_mutation: Dict[int, int] = {}
        self.model: Optional[ConfigurationModel] = None
        self.relation_model = None
        self.allocation: Optional[AllocationResult] = None
        self.quantification_report = None
        self._detectors: Dict[int, SaturationDetector] = {}
        self._mutators: Dict[int, ConfigMutator] = {}
        #: lost instance index -> [(survivor index, donated entity)].
        self._donations: Dict[int, List] = {}
        self._telemetry = NULL_TELEMETRY

    # -- pipeline ----------------------------------------------------------

    def create_instances(self, ctx) -> List[FuzzingInstance]:
        target_cls = ctx.target_cls
        telemetry = getattr(ctx, "telemetry", None) or NULL_TELEMETRY
        self._telemetry = telemetry
        entities = extract_entities(
            target_cls.config_sources(), target_cls.entity_overrides()
        )
        self.model = ConfigurationModel(entities)

        # A configuration combination that crashes the target during
        # startup is both a finding and zero startup coverage. Faults
        # travel inside the probe outcomes and replay through on_fault,
        # so the bug ledger is the same whether the probes ran
        # in-process, in the campaign's probe workers or from the probe
        # cache.
        def on_fault(fault):
            ctx.record_startup_fault(fault, instance=-1)

        executor = build_probe_executor(
            target_cls.NAME, workers=ctx.probe_workers, cache=ctx.probe_cache,
            cache_dir=ctx.probe_cache_dir, telemetry=telemetry,
            injector=ctx.io_injector,
        )
        quantifier = RelationQuantifier(
            max_combinations=self.max_combinations, aggregate=self.aggregate,
            executor=executor, on_fault=on_fault, telemetry=telemetry,
        )
        with telemetry.span("cmfuzz.quantify", target=target_cls.NAME):
            self.relation_model, self.quantification_report = (
                quantifier.quantify(self.model)
            )
        telemetry.counter("cmfuzz.probe_launches").inc(
            self.quantification_report.launches
        )
        ctx.clock.advance(
            self.quantification_report.launches * ctx.costs.startup_probe
        )
        self.allocation = self.allocator(self.relation_model, ctx.n_instances)

        instances = []
        groups = list(self.allocation.groups)
        while len(groups) < ctx.n_instances:
            groups.append([])
        best_values = self.quantification_report.best_values
        for index in range(ctx.n_instances):
            namespace = ctx.namespaces.create("%s-cmfuzz-%d" % (target_cls.NAME, index))
            bundle = reassemble_group(self.model, groups[index], value_picks=best_values)
            seed = ctx.seed * 3000 + index
            factory = _EngineFactory(ctx, seed=seed, index=index)
            instance = FuzzingInstance(
                index, target_cls, namespace, factory, bundle=bundle
            )
            self._detectors[index] = SaturationDetector(self.saturation_window)
            mutator_cls = GuidedConfigMutator if self.guided_mutation else ConfigMutator
            self._mutators[index] = mutator_cls(self.model, seed=seed)
            instances.append(instance)
        return instances

    def setup_objects(self) -> List[object]:
        """The configuration and relation models, the allocation and the
        quantification report: built once, read-only afterwards."""
        return [obj for obj in (self.quantification_report, self.model,
                                self.relation_model, self.allocation)
                if obj is not None]

    # -- adaptive configuration mutation ------------------------------------

    def on_sync(self, ctx) -> None:
        if not self.adaptive_mutation:
            return
        now = ctx.clock.now
        for instance in ctx.instances:
            if instance.dead or not instance.available(now):
                continue
            detector = self._detectors[instance.index]
            detector.observe(now, instance.coverage)
            if not detector.saturated(now):
                continue
            self._mutate_instance(ctx, instance, now)
            detector.reset(now)

    def _mutate_instance(self, ctx, instance: FuzzingInstance, now: float) -> None:
        """Move one configuration value and restart the target."""
        telemetry = self._telemetry
        mutator = self._mutators[instance.index]
        if self.guided_mutation:
            # Credit the previous mutation with the coverage it unlocked.
            baseline = self._coverage_at_mutation.get(instance.index)
            if baseline is not None:
                mutator.reward(instance.coverage - baseline)
        previous = instance.bundle
        for _attempt in range(4):
            mutated = mutator.mutate(instance.bundle)
            if mutated is None:
                return
            try:
                instance.restart(mutated.assignment)
            except StartupError:
                ctx.startup_conflicts += 1
                instance.bundle = previous
                continue
            except TargetHang:
                instance.bundle = previous
                instance.down_until = now + ctx.costs.hang_timeout
                continue
            except SanitizerFault as fault:
                ctx.record_startup_fault(fault, instance=instance.index)
                instance.bundle = previous
                continue
            instance.bundle = mutated
            instance.config_mutations += 1
            instance.down_until = now + ctx.costs.config_restart
            self._coverage_at_mutation[instance.index] = instance.coverage
            telemetry.counter("cmfuzz.config_mutations",
                              instance=instance.index).inc()
            telemetry.event("cmfuzz.mutate", instance=instance.index,
                            attempts=_attempt + 1)
            return
        # All mutation attempts failed to boot: restore the old config.
        telemetry.counter("cmfuzz.mutation_exhausted",
                          instance=instance.index).inc()
        try:
            instance.restart(previous.assignment)
        except (StartupError, SanitizerFault, TargetHang):
            supervisor = getattr(ctx, "supervisor", None)
            if supervisor is not None:
                supervisor.quarantine(instance, now,
                                      "known-good configuration no longer boots")
            else:
                instance.dead = True

    # -- graceful degradation -----------------------------------------------

    def _survivors(self, ctx, lost: FuzzingInstance) -> List[FuzzingInstance]:
        return [
            instance for instance in ctx.instances
            if instance is not lost
            and not instance.dead and not instance.quarantined
        ]

    def _apply_bundle(self, ctx, instance: FuzzingInstance,
                      bundle: ConfigBundle) -> bool:
        """Restart ``instance`` under ``bundle``; False reverts cleanly.

        A failed restart leaves the previous target process serving, so
        reverting is just restoring the old bundle object.
        """
        previous = instance.bundle
        if instance.engine is None:
            # Not started yet (initial-start phase): adopt the bundle and
            # let _safe_initial_start boot it.
            instance.bundle = bundle
            return True
        try:
            instance.restart(bundle.assignment)
        except StartupError:
            ctx.startup_conflicts += 1
            instance.bundle = previous
            return False
        except TargetHang:
            instance.bundle = previous
            instance.down_until = max(
                instance.down_until, ctx.clock.now + ctx.costs.hang_timeout
            )
            return False
        except SanitizerFault as fault:
            ctx.record_startup_fault(fault, instance=instance.index)
            instance.bundle = previous
            return False
        instance.bundle = ConfigBundle(assignment=dict(bundle.assignment),
                                       group=list(bundle.group))
        instance.down_until = max(
            instance.down_until, ctx.clock.now + ctx.costs.config_restart
        )
        return True

    def on_instance_lost(self, ctx, instance: FuzzingInstance) -> None:
        """Reallocate the lost instance's entity group across survivors.

        Coverage must not silently lose 1/N of the configuration model:
        each donated entity joins the survivor with the smallest group
        (keeping groups cohesive) and that survivor restarts under the
        widened configuration, charged at the config-restart cost.
        """
        if self.model is None or instance.index in self._donations:
            return
        survivors = self._survivors(ctx, instance)
        group = list(instance.bundle.group)
        if not survivors or not group:
            return
        best_values = (self.quantification_report.best_values
                       if self.quantification_report else {})
        planned: Dict[int, List[str]] = {}
        for entity in group:
            survivor = min(
                survivors,
                key=lambda i: (len(i.bundle.group)
                               + len(planned.get(i.index, [])), i.index),
            )
            if (entity in survivor.bundle.group
                    or entity in planned.get(survivor.index, [])):
                continue
            planned.setdefault(survivor.index, []).append(entity)
        donations: List = []
        by_index = {i.index: i for i in survivors}
        for survivor_index, entities in planned.items():
            survivor = by_index[survivor_index]
            picks = dict(best_values)
            picks.update(survivor.bundle.assignment)
            widened = reassemble_group(
                self.model, list(survivor.bundle.group) + entities,
                value_picks=picks,
            )
            if self._apply_bundle(ctx, survivor, widened):
                donations.extend((survivor_index, entity)
                                 for entity in entities)
        self._donations[instance.index] = donations
        if donations:
            self._telemetry.counter("cmfuzz.entities_donated").inc(len(donations))
            self._telemetry.event("cmfuzz.donate", lost=instance.index,
                                  entities=len(donations))

    def on_instance_revived(self, ctx, instance: FuzzingInstance) -> None:
        """Hand donated entities back to the revived instance's group.

        The revived index also gets a *fresh* saturation detector: the
        old one still carries the pre-loss progress clock, so an
        instance that sat quarantined past the window would otherwise be
        declared saturated — and config-mutated — on its very first
        post-revival sync, before the revived configuration ran at all.
        """
        if instance.index in self._detectors:
            self._detectors[instance.index] = SaturationDetector(
                self.saturation_window)
        donations = self._donations.pop(instance.index, [])
        if donations:
            self._telemetry.counter("cmfuzz.entities_reclaimed").inc(
                len(donations))
        returned: Dict[int, List[str]] = {}
        for survivor_index, entity in donations:
            returned.setdefault(survivor_index, []).append(entity)
        by_index = {i.index: i for i in ctx.instances}
        best_values = (self.quantification_report.best_values
                       if self.quantification_report else {})
        for survivor_index, entities in returned.items():
            survivor = by_index.get(survivor_index)
            if survivor is None or survivor.dead or survivor.quarantined:
                continue
            trimmed = [name for name in survivor.bundle.group
                       if name not in entities]
            picks = dict(best_values)
            picks.update(survivor.bundle.assignment)
            self._apply_bundle(ctx, survivor, reassemble_group(
                self.model, trimmed, value_picks=picks,
            ))


register_mode(
    "cmfuzz", CmFuzzMode,
    "The paper's pipeline: config-model identification, relation "
    "quantification, cohesive group allocation, adaptive config "
    "mutation at coverage saturation.",
)
