"""Pairwise relation weight quantification (§III-B1).

For every pair of configuration entities, CMFuzz launches the target with
each combination of the pair's typical values and records the **startup
coverage** — a lightweight proxy for overall coverage, since configurations
are loaded and initialised during startup. The peak coverage across all
combinations becomes the pair's raw weight; pairs whose every combination
yields zero coverage (e.g. conflicting settings that abort startup) get no
edge. Raw weights are normalised to [0, 1].

Quantification runs in three phases so the probe workload can be fanned
out and cached without perturbing results:

1. **Plan** — enumerate every pair's value combinations in the canonical
   order and dedupe identical assignments (first-seen order), then derive
   the baseline/single probes the synergy computation will demand.
2. **Execute** — run the unique assignments through a probe executor
   (:mod:`repro.core.probes`): in-process, pooled across worker
   processes, or backed by the content-addressed on-disk cache.
3. **Replay** — re-walk the exact sequential control flow, sourcing every
   logical probe from the executed outcomes. The report's probe sequence,
   launch counts, best values and raw weights are bit-identical whether
   the probes ran in-process, across N workers, or entirely from cache.

This is the only quantification path: a bare probe handed to
:class:`RelationQuantifier` runs through a
:class:`~repro.core.probes.LocalProbeExecutor`.

:meth:`RelationQuantifier.requantify` builds on the same machinery for
incremental rebuilds: pairs whose entities are unchanged (by fingerprint)
carry their previous raw weight; only pairs containing changed entities
re-probe.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.entity import ConfigEntity
from repro.core.model import ConfigurationModel, RelationAwareModel, normalize_weights
from repro.core.probes import (
    LocalProbeExecutor,
    ProbeOutcome,
    assignment_items,
    deserialize_fault,
)
from repro.telemetry import NULL_TELEMETRY

#: A startup probe: maps a partial configuration assignment to the branch
#: sites covered during target startup, as an iterable of site strings
#: (:func:`~repro.targets.base.startup_probe_for` returns a
#: ``frozenset``). It must raise
#: :class:`~repro.errors.StartupError` (or return no sites) when the
#: assignment prevents the target from starting.
StartupProbe = Callable[[Dict[str, Any]], Iterable[str]]


@dataclass
class ProbeRecord:
    """One startup launch: the assignment tried and the coverage observed."""

    assignment: Dict[str, Any]
    branches: int
    failed: bool = False
    sites: frozenset = frozenset()


def entity_fingerprint(entity: ConfigEntity) -> str:
    """A stable digest of everything quantification observes of an entity.

    Two entities with equal fingerprints produce identical probe
    assignments, so any pair formed from unchanged entities can carry its
    previous raw weight instead of re-probing.
    """
    payload = "%s\x1f%s\x1f%s\x1f%s" % (
        entity.name,
        entity.type.value,
        entity.flag.value,
        repr(tuple(entity.values)),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class QuantificationReport:
    """Bookkeeping for a full pairwise quantification run."""

    probes: List[ProbeRecord] = field(default_factory=list)
    raw_weights: Dict[Tuple[str, str], float] = field(default_factory=dict)
    #: Per entity: the value that participated in the highest-coverage
    #: startup probe. Used to seed instance bundles with the synergistic
    #: values the probes discovered (the paper's early-lead effect).
    best_values: Dict[str, Any] = field(default_factory=dict)
    #: Per-entity content fingerprints (see :func:`entity_fingerprint`);
    #: :meth:`RelationQuantifier.requantify` compares them to auto-detect
    #: which entities changed since this report was produced.
    entity_fingerprints: Dict[str, str] = field(default_factory=dict)
    #: Pairs whose raw weight was carried from a previous report instead
    #: of re-probed (incremental rebuilds only).
    carried_pairs: int = 0
    _best_scores: Dict[str, int] = field(default_factory=dict)

    def __getstate__(self) -> Dict[str, Any]:
        # Every checkpoint re-pickles the report, so its probe log goes
        # out as plain rows: a dataclass reduce per record would repeat
        # the class reference and a field-name dict thousands of times.
        state = dict(self.__dict__)
        state["probes"] = [
            (record.assignment, record.branches, record.failed, record.sites)
            for record in self.probes
        ]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        state = dict(state)
        state["probes"] = [ProbeRecord(*row) for row in state["probes"]]
        self.__dict__.update(state)

    def note_probe(self, record: ProbeRecord) -> None:
        """Log a probe and fold its values into ``best_values``."""
        self.probes.append(record)
        self.fold_best(record)

    def fold_best(self, record: ProbeRecord) -> None:
        """Fold a record into ``best_values`` without logging a launch.

        Incremental rebuilds use this to carry the prior run's records
        for unchanged pairs, so best values stay exact while the probes
        themselves are skipped.
        """
        for name, value in record.assignment.items():
            if record.branches > self._best_scores.get(name, -1):
                self._best_scores[name] = record.branches
                self.best_values[name] = value

    @property
    def launches(self) -> int:
        """Total startup launches performed."""
        return len(self.probes)

    @property
    def failures(self) -> int:
        """Launches that failed startup (conflicting combinations)."""
        return sum(1 for record in self.probes if record.failed)


class RelationQuantifier:
    """Builds a relation-aware model from a configuration model and a probe.

    Args:
        probe: The startup probe (see :data:`StartupProbe`), run
            in-process through a
            :class:`~repro.core.probes.LocalProbeExecutor`; ignored when
            ``executor`` is given.
        max_combinations: Safety cap on value combinations tried per pair;
            values beyond the cap are skipped deterministically (the
            cartesian product is truncated, preserving early values which
            include the defaults).
        aggregate: ``"max"`` (paper: peak interaction effect) or ``"mean"``
            — exposed for the A3 ablation.
        synergy: When true (default), a combination's contribution is its
            *interaction excess*: pair coverage minus what each value
            achieves alone (relative to the default-configuration
            baseline). This isolates the "new execution paths unlocked
            when used together" the paper attributes to synergistic
            relations; without it, every pair inherits the startup
            baseline and the relation graph degenerates to a near-uniform
            clique. Conflicting combinations (startup failure, zero
            coverage) contribute nothing, so conflict-only pairs keep no
            edge, as in the paper.
        executor: Optional probe executor from :mod:`repro.core.probes`
            (local, pooled or cached); the report is bit-identical
            whichever runs the probes. To replay sanitizer faults through
            ``on_fault``, the executor's probe must collect them into its
            outcomes (see :func:`repro.core.probes.build_probe_executor`)
            rather than firing callbacks during execution.
        on_fault: Callback invoked with each rebuilt
            :class:`~repro.targets.faults.SanitizerFault` during replay,
            once per logical probe occurrence — keeping bug ledgers
            identical whether outcomes were freshly executed or served
            from the cache. A bare ``probe`` fires its own callbacks
            while it runs instead.
        telemetry: Optional :class:`repro.telemetry.Telemetry`; records
            ``modelbuild.*`` counters and per-phase spans.
    """

    def __init__(
        self,
        probe: Optional[StartupProbe] = None,
        max_combinations: int = 36,
        aggregate: str = "max",
        synergy: bool = True,
        executor=None,
        on_fault: Optional[Callable[[Any], None]] = None,
        telemetry=None,
    ):
        if aggregate not in ("max", "mean"):
            raise ValueError("aggregate must be 'max' or 'mean', got %r" % aggregate)
        if executor is None:
            if probe is None:
                raise ValueError("need a startup probe or a probe executor")
            executor = LocalProbeExecutor(probe)
        self.max_combinations = max_combinations
        self.aggregate = aggregate
        self.synergy = synergy
        self.executor = executor
        self.on_fault = on_fault
        self.telemetry = telemetry or NULL_TELEMETRY
        self._baseline: Optional[frozenset] = None
        self._single_cache: Dict[Tuple[str, Any], frozenset] = {}
        #: Canonical objects for every site name and site set seen, so
        #: equal sets across probes are one shared object in the report.
        self._shared: Dict[Any, Any] = {}
        #: Workload accounting for the most recent quantify/requantify
        #: call: logical probes, physical executions, cache hits, probes
        #: skipped by dedupe, and pairs carried without re-probing.
        self.last_run_stats: Dict[str, int] = {}

    def _share_sites(self, sites: frozenset) -> frozenset:
        """The canonical object equal to ``sites`` (built on first sight).

        Pooled and cached outcomes arrive freshly unpickled, and a
        caller's own probe may build fresh strings on every call.
        Without this, the report holds one copy of every name per probe.
        """
        shared = self._shared.get(sites)
        if shared is None:
            shared = frozenset(self._shared.setdefault(site, site)
                               for site in sites)
            self._shared[shared] = shared
        return shared

    def _pair_combinations(
        self, entity_a: ConfigEntity, entity_b: ConfigEntity
    ) -> Iterable[Tuple[Any, Any]]:
        values_a = entity_a.values or (None,)
        values_b = entity_b.values or (None,)
        return itertools.islice(
            itertools.product(values_a, values_b), self.max_combinations
        )

    @staticmethod
    def _combo_assignment(entity_a: ConfigEntity, entity_b: ConfigEntity,
                          value_a: Any, value_b: Any) -> Dict[str, Any]:
        assignment: Dict[str, Any] = {}
        if value_a is not None:
            assignment[entity_a.name] = value_a
        if value_b is not None:
            assignment[entity_b.name] = value_b
        return assignment

    def _aggregate(self, observed: List[float]) -> float:
        if not observed:
            return 0.0
        if self.aggregate == "max":
            return max(observed)
        return sum(observed) / len(observed)

    # -- plan / execute / replay -------------------------------------------

    def _plan_unique(
        self, pairs: List[Tuple[ConfigEntity, ConfigEntity]]
    ) -> List[Tuple[Tuple[str, Any], ...]]:
        """Stage A: unique pair-combination assignments, first-seen order."""
        unique: Dict[Tuple[Tuple[str, Any], ...], None] = {}
        for entity_a, entity_b in pairs:
            for value_a, value_b in self._pair_combinations(entity_a, entity_b):
                assignment = self._combo_assignment(
                    entity_a, entity_b, value_a, value_b)
                unique.setdefault(assignment_items(assignment))
        return list(unique)

    def _plan_supports(
        self,
        pairs: List[Tuple[ConfigEntity, ConfigEntity]],
        outcomes: Dict[Tuple[Tuple[str, Any], ...], ProbeOutcome],
    ) -> List[Tuple[Tuple[str, Any], ...]]:
        """Stage B: baseline/single probes the synergy replay will demand.

        Simulates the sequential control flow against the stage-A
        outcomes without touching the live caches, so only probes that
        replay will actually request — and that are not already cached on
        this quantifier or covered by stage A — are executed.
        """
        needed: Dict[Tuple[Tuple[str, Any], ...], None] = {}
        have_baseline = self._baseline is not None
        have_singles: Set[Tuple[str, Any]] = set(self._single_cache)

        def require(assignment: Dict[str, Any]) -> None:
            key = assignment_items(assignment)
            if key not in outcomes:
                needed.setdefault(key)

        for entity_a, entity_b in pairs:
            for value_a, value_b in self._pair_combinations(entity_a, entity_b):
                assignment = self._combo_assignment(
                    entity_a, entity_b, value_a, value_b)
                outcome = outcomes[assignment_items(assignment)]
                if outcome.failed or outcome.branches == 0 or not self.synergy:
                    continue
                if not have_baseline:
                    require({})
                    have_baseline = True
                for name, value in ((entity_a.name, value_a),
                                    (entity_b.name, value_b)):
                    if value is not None and (name, value) not in have_singles:
                        require({name: value})
                        have_singles.add((name, value))
        return list(needed)

    def _replay_record(self, assignment: Dict[str, Any],
                       outcome: ProbeOutcome,
                       report: QuantificationReport) -> ProbeRecord:
        """Note one logical probe from an executed outcome, firing faults."""
        record = ProbeRecord(dict(assignment), outcome.branches,
                             failed=outcome.failed,
                             sites=self._share_sites(outcome.sites))
        report.note_probe(record)
        if self.on_fault is not None:
            for entry in outcome.faults:
                self.on_fault(deserialize_fault(entry))
        return record

    def _replay_baseline(self, outcomes, report) -> frozenset:
        if self._baseline is None:
            record = self._replay_record({}, outcomes[()], report)
            self._baseline = record.sites
        return self._baseline

    def _replay_single(self, name: str, value: Any, outcomes, report) -> frozenset:
        key = (name, value)
        if key not in self._single_cache:
            assignment = {name: value}
            record = self._replay_record(
                assignment, outcomes[assignment_items(assignment)], report)
            self._single_cache[key] = record.sites
        return self._single_cache[key]

    def _replay_pair(
        self,
        entity_a: ConfigEntity,
        entity_b: ConfigEntity,
        outcomes: Dict[Tuple[Tuple[str, Any], ...], ProbeOutcome],
        report: QuantificationReport,
    ) -> float:
        """Re-walk one pair's sequential control flow from outcomes."""
        observed: List[float] = []
        for value_a, value_b in self._pair_combinations(entity_a, entity_b):
            assignment = self._combo_assignment(
                entity_a, entity_b, value_a, value_b)
            record = self._replay_record(
                assignment, outcomes[assignment_items(assignment)], report)
            if record.failed or record.branches == 0:
                observed.append(0.0)
                continue
            if not self.synergy:
                observed.append(float(record.branches))
                continue
            baseline = self._replay_baseline(outcomes, report)
            alone_a = (self._replay_single(entity_a.name, value_a, outcomes, report)
                       if value_a is not None else baseline)
            alone_b = (self._replay_single(entity_b.name, value_b, outcomes, report)
                       if value_b is not None else baseline)
            unlocked = record.sites - alone_a - alone_b - baseline
            observed.append(float(len(unlocked)))
        return self._aggregate(observed)

    def _quantify_pairs(
        self,
        pairs: List[Tuple[ConfigEntity, ConfigEntity]],
        report: QuantificationReport,
    ) -> Dict[Tuple[str, str], float]:
        """Probe ``pairs`` and return their raw weights.

        Plan → execute → replay, producing a bit-identical report
        regardless of worker count or cache warmth.
        """
        raw: Dict[Tuple[str, str], float] = {}
        logical_before = len(report.probes)
        stats_before = dict(self.executor.stats)
        with self.telemetry.span("modelbuild.plan"):
            combo_keys = self._plan_unique(pairs)
        with self.telemetry.span("modelbuild.execute", probes=len(combo_keys)):
            combo_outcomes = self.executor.run(
                [dict(key) for key in combo_keys])
        outcomes = dict(zip(combo_keys, combo_outcomes))
        with self.telemetry.span("modelbuild.plan"):
            support_keys = self._plan_supports(pairs, outcomes)
        if support_keys:
            with self.telemetry.span("modelbuild.execute",
                                     probes=len(support_keys)):
                support_outcomes = self.executor.run(
                    [dict(key) for key in support_keys])
            outcomes.update(zip(support_keys, support_outcomes))
        with self.telemetry.span("modelbuild.replay"):
            for entity_a, entity_b in pairs:
                weight = self._replay_pair(entity_a, entity_b, outcomes, report)
                if weight > 0:
                    raw[(entity_a.name, entity_b.name)] = weight
        stats_after = self.executor.stats
        self._note_stats(
            len(report.probes) - logical_before,
            executed=stats_after.get("executed", 0)
            - stats_before.get("executed", 0),
            cache_hits=stats_after.get("cache_hits", 0)
            - stats_before.get("cache_hits", 0),
        )
        return raw

    def _note_stats(self, logical: int, executed: int, cache_hits: int,
                    carried_pairs: int = 0) -> None:
        skipped = max(0, logical - executed - cache_hits)
        self.last_run_stats = {
            "logical": logical,
            "executed": executed,
            "cache_hits": cache_hits,
            "skipped": skipped,
            "carried_pairs": carried_pairs,
        }
        self.telemetry.counter("modelbuild.probes_run").inc(executed)
        self.telemetry.counter("modelbuild.probes_cached").inc(cache_hits)
        self.telemetry.counter("modelbuild.probes_skipped").inc(skipped)
        if carried_pairs:
            self.telemetry.counter("modelbuild.pairs_carried").inc(carried_pairs)

    @staticmethod
    def _entity_pairs(
        entities: List[ConfigEntity],
    ) -> List[Tuple[ConfigEntity, ConfigEntity]]:
        return [
            (entity_a, entity_b)
            for index, entity_a in enumerate(entities)
            for entity_b in entities[index + 1:]
        ]

    def _finish(
        self,
        model: ConfigurationModel,
        report: QuantificationReport,
        raw: Dict[Tuple[str, str], float],
    ) -> Tuple[RelationAwareModel, QuantificationReport]:
        report.raw_weights = dict(raw)
        relation_model = RelationAwareModel(model)
        for (name_a, name_b), weight in normalize_weights(raw).items():
            relation_model.set_weight(name_a, name_b, weight)
        return relation_model, report

    def quantify(
        self, model: ConfigurationModel
    ) -> Tuple[RelationAwareModel, QuantificationReport]:
        """Quantify all pairs and return the relation-aware model.

        Only mutable entities participate in relation probing: IMMUTABLE
        entities (paths, certificates) are environment facts that every
        instance shares, so grouping them is meaningless.
        """
        report = QuantificationReport()
        entities = model.mutable_entities()
        report.entity_fingerprints = {
            entity.name: entity_fingerprint(entity) for entity in entities
        }
        raw = self._quantify_pairs(self._entity_pairs(entities), report)
        return self._finish(model, report, raw)

    def requantify(
        self,
        model: ConfigurationModel,
        previous: QuantificationReport,
        changed: Optional[Iterable[str]] = None,
    ) -> Tuple[RelationAwareModel, QuantificationReport]:
        """Incrementally re-quantify after a model edit.

        Pairs formed entirely from unchanged entities carry their raw
        weight (and the entities their best values) from ``previous``;
        only pairs containing a changed entity re-probe. Weights are then
        re-normalised over the merged raw set, so the returned model is
        exactly what a full :meth:`quantify` of the new model would
        produce — minus the redundant launches.

        Args:
            model: The edited configuration model.
            previous: The report from the prior quantification (its
                ``entity_fingerprints`` drive change detection).
            changed: Explicit entity names to treat as changed; when
                omitted, entities whose fingerprint differs from
                ``previous`` (including new entities) are detected
                automatically.
        """
        entities = model.mutable_entities()
        fingerprints = {
            entity.name: entity_fingerprint(entity) for entity in entities
        }
        if changed is None:
            changed_set = {
                name for name, digest in fingerprints.items()
                if previous.entity_fingerprints.get(name) != digest
            }
        else:
            changed_set = set(changed)

        report = QuantificationReport()
        report.entity_fingerprints = fingerprints

        raw: Dict[Tuple[str, str], float] = {}
        stale_pairs: List[Tuple[ConfigEntity, ConfigEntity]] = []
        carried_pairs: List[Tuple[ConfigEntity, ConfigEntity]] = []
        for entity_a, entity_b in self._entity_pairs(entities):
            if entity_a.name in changed_set or entity_b.name in changed_set:
                stale_pairs.append((entity_a, entity_b))
                continue
            carried_pairs.append((entity_a, entity_b))
            weight = previous.raw_weights.get(
                (entity_a.name, entity_b.name),
                previous.raw_weights.get((entity_b.name, entity_a.name), 0.0),
            )
            if weight > 0:
                raw[(entity_a.name, entity_b.name)] = weight
        report.carried_pairs = len(carried_pairs)

        # Carry best values by re-folding the prior run's records for the
        # carried pairs — but only assignments a full quantify of the
        # edited model would still probe. Records tied to a changed
        # entity's old values (or to combinations beyond the new
        # truncation point) no longer exist in that universe, and seeding
        # their scores would pin stale best values.
        valid: Set[Tuple[Tuple[str, Any], ...]] = {()}
        for entity_a, entity_b in carried_pairs:
            for value_a, value_b in self._pair_combinations(entity_a, entity_b):
                combo = self._combo_assignment(
                    entity_a, entity_b, value_a, value_b)
                valid.add(assignment_items(combo))
                for name, value in combo.items():
                    valid.add(((name, value),))
        for record in previous.probes:
            if assignment_items(record.assignment) in valid:
                report.fold_best(record)

        # Changed entities invalidate any cached single-value coverage the
        # quantifier carried for their old values.
        for key in [k for k in self._single_cache if k[0] in changed_set]:
            del self._single_cache[key]

        raw.update(self._quantify_pairs(stale_pairs, report))
        self.last_run_stats["carried_pairs"] = report.carried_pairs
        if carried_pairs:
            self.telemetry.counter("modelbuild.pairs_carried").inc(
                len(carried_pairs))
        return self._finish(model, report, raw)
