"""High-level experiment orchestration: the paper's protocols as APIs.

Wraps the campaign runner into the exact experimental protocols of the
evaluation section, so benches, the CLI and notebooks share one
implementation. Campaign execution goes through the public facade —
:func:`repro.api.compare_modes` — which fans cells across workers and
memoises outcomes on disk.

The paper's tables map onto it directly: one Table-I row is
``compare_modes(subject)``; Table II merges
``compare_modes(...).merged_bugs()`` ledgers across subjects; one
Figure-4 panel feeds a :class:`SubjectComparison` to
:func:`coverage_panels`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.harness.campaign import CampaignConfig, CampaignResult, run_repeated
from repro.harness.executor import execute_specs, results, specs_for_repeated
from repro.harness.stats import TimeSeries, mean, speedup
from repro.harness.supervisor import SupervisorPolicy, event_counts
from repro.parallel import mode_names
from repro.targets.chaos import ChaosPolicy
from repro.targets.registry import get_target
from repro.targets.faults import BugLedger

DEFAULT_FUZZERS = ("cmfuzz", "peach", "spfuzz")


@dataclass
class SubjectComparison:
    """All repetitions for one subject across fuzzers, plus aggregates."""

    subject: str
    results: Dict[str, List[CampaignResult]]

    def mean_coverage(self, fuzzer: str) -> float:
        return mean([r.final_coverage for r in self.results[fuzzer]])

    def improvement_over(self, baseline: str, contender: str = "cmfuzz") -> float:
        base = self.mean_coverage(baseline)
        if base <= 0:
            return 0.0
        return 100.0 * (self.mean_coverage(contender) - base) / base

    def speedup_over(self, baseline: str, contender: str = "cmfuzz") -> float:
        pairs = zip(self.results[baseline], self.results[contender])
        return mean([speedup(b.coverage, c.coverage) for b, c in pairs])

    def merged_bugs(self, fuzzer: str = "cmfuzz") -> BugLedger:
        merged = BugLedger()
        for result in self.results[fuzzer]:
            merged.merge(result.bugs)
        return merged


def _run_fuzzers(
    subject: str,
    fuzzers: Sequence[str],
    repetitions: int,
    config: Optional[CampaignConfig],
    mode_factories: Optional[Dict[str, Callable]] = None,
    workers: int = 1,
    cache: bool = False,
    cache_dir: Optional[str] = None,
    backend: Optional[str] = None,
    coordinator: Optional[str] = None,
) -> SubjectComparison:
    entry = get_target(subject)
    factories = mode_factories or {}
    registered = mode_names()
    for fuzzer in fuzzers:
        if fuzzer not in factories and fuzzer not in registered:
            raise KeyError(fuzzer)

    # Registry fuzzers go through the executor as picklable specs (the
    # workers=1 path is in-process and bit-identical to run_repeated);
    # custom factories cannot cross a process boundary and stay serial.
    spec_fuzzers = [f for f in fuzzers if f not in factories]
    by_fuzzer: Dict[str, List[CampaignResult]] = {}
    if spec_fuzzers:
        specs = []
        for fuzzer in spec_fuzzers:
            specs.extend(specs_for_repeated(subject, fuzzer, repetitions, config))
        campaigns = results(execute_specs(
            specs, workers=workers, cache=cache, cache_dir=cache_dir,
            backend=backend, coordinator=coordinator,
        ))
        for position, fuzzer in enumerate(spec_fuzzers):
            start = position * repetitions
            by_fuzzer[fuzzer] = campaigns[start:start + repetitions]
    for fuzzer in fuzzers:
        if fuzzer in factories:
            by_fuzzer[fuzzer] = run_repeated(
                entry.target_cls, entry.state_model, factories[fuzzer],
                repetitions=repetitions, config=config,
            )
    return SubjectComparison(
        subject=subject, results={f: by_fuzzer[f] for f in fuzzers},
    )


@dataclass
class ResilienceCell:
    """One (chaos level, fuzzer) cell of the resilience experiment."""

    level: float
    fuzzer: str
    results: List[CampaignResult]

    @property
    def mean_coverage(self) -> float:
        return mean([r.final_coverage for r in self.results])

    @property
    def supervisor_event_counts(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for result in self.results:
            for kind, count in event_counts(result.supervisor_events).items():
                merged[kind] = merged.get(kind, 0) + count
        return merged


def chaos_config(config: CampaignConfig, level: float,
                 chaos_seed: int = 0) -> CampaignConfig:
    """Derive a chaos-enabled copy of ``config`` for one chaos level."""
    if level <= 0.0:
        return config
    return dataclasses.replace(
        config,
        chaos=ChaosPolicy.from_level(level),
        chaos_seed=chaos_seed,
        supervisor=SupervisorPolicy.for_chaos(),
    )


def resilience_experiment(
    subject: str,
    chaos_levels: Sequence[float] = (0.0, 0.15, 0.3),
    fuzzers: Sequence[str] = DEFAULT_FUZZERS,
    repetitions: int = 2,
    config: Optional[CampaignConfig] = None,
    chaos_seed: int = 0,
    workers: int = 1,
    cache: bool = False,
    cache_dir: Optional[str] = None,
) -> Dict[float, Dict[str, ResilienceCell]]:
    """Coverage retention under rising chaos levels.

    Runs every fuzzer at every chaos level (level 0 is the chaos-free
    baseline retention is measured against) and returns the grid as
    ``{level: {fuzzer: ResilienceCell}}``. Use
    :func:`retention` to compare a cell against its baseline.
    """
    from repro.api import compare_modes

    base = config or CampaignConfig()
    grid: Dict[float, Dict[str, ResilienceCell]] = {}
    for level in chaos_levels:
        level_config = chaos_config(base, level, chaos_seed=chaos_seed)
        comparison = compare_modes(subject, modes=fuzzers,
                                   repetitions=repetitions,
                                   config=level_config, workers=workers,
                                   cache=cache, cache_dir=cache_dir)
        grid[level] = {
            fuzzer: ResilienceCell(level=level, fuzzer=fuzzer,
                                   results=comparison.results[fuzzer])
            for fuzzer in fuzzers
        }
    return grid


def retention(grid: Dict[float, Dict[str, "ResilienceCell"]],
              level: float, fuzzer: str) -> float:
    """Final coverage at ``level`` as a fraction of the chaos-free run."""
    baseline = grid[0.0][fuzzer].mean_coverage
    if baseline <= 0:
        return 0.0
    return grid[level][fuzzer].mean_coverage / baseline


def coverage_panels(
    comparison: SubjectComparison,
    horizon: float,
    grid_step: float = 3600.0,
) -> Dict[str, TimeSeries]:
    """Average each fuzzer's coverage series over a regular time grid."""
    panels: Dict[str, TimeSeries] = {}
    for fuzzer, results in comparison.results.items():
        averaged = TimeSeries()
        t = 0.0
        while t <= horizon + 1e-9:
            averaged.record(t, mean([r.coverage.value_at(t) for r in results]))
            t += grid_step
        panels[fuzzer] = averaged
    return panels
