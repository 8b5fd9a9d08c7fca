"""Ablation A3: max-combination weight vs mean-combination weight.

The paper selects the *highest* coverage across a pair's value
combinations to capture the peak interaction effect. This ablation swaps
in the mean. Both should produce workable schedules; max must retain at
least as many relation edges for synergies that appear only under
specific value pairs.
"""

import pytest

from repro.core.extraction import extract_entities
from repro.core.model import ConfigurationModel
from repro.core.relation import RelationQuantifier
from repro.harness.stats import mean
from repro.parallel.cmfuzz import CmFuzzMode
from repro.targets import get_target
from repro.targets.base import startup_probe_for

from conftest import repeated


@pytest.mark.parametrize("subject", ("mosquitto", "libcoap"))
def test_ablation_weight_edges(benchmark, subject):
    target_cls = get_target(subject).target_cls
    entities = extract_entities(target_cls.config_sources(), target_cls.entity_overrides())

    def quantify(aggregate):
        quantifier = RelationQuantifier(
            startup_probe_for(target_cls), max_combinations=16, aggregate=aggregate
        )
        relation_model, _ = quantifier.quantify(ConfigurationModel(entities))
        return relation_model

    def experiment():
        return quantify("max"), quantify("mean")

    max_model, mean_model = benchmark.pedantic(experiment, rounds=1, iterations=1)
    max_edges = max_model.number_of_edges()
    mean_edges = mean_model.number_of_edges()
    print("\nAblation A3 (%s): edges max=%d mean=%d" % (subject, max_edges, mean_edges))

    # A pair has positive mean iff it has positive max, so the edge sets
    # coincide; what changes is the raw weight mass behind the
    # normalisation. Peak aggregation dominates pointwise.
    assert max_edges == mean_edges
    quantifier = RelationQuantifier(
        startup_probe_for(target_cls), max_combinations=16,
        aggregate="max",
    )
    mean_quantifier = RelationQuantifier(
        startup_probe_for(target_cls), max_combinations=16,
        aggregate="mean",
    )
    model = ConfigurationModel(entities)
    _, max_report = quantifier.quantify(model)
    _, mean_report = mean_quantifier.quantify(model)
    for pair, raw in mean_report.raw_weights.items():
        assert max_report.raw_weights.get(pair, 0.0) >= raw, pair
    benchmark.extra_info["max_edges"] = max_edges
    benchmark.extra_info["mean_edges"] = mean_edges


def test_ablation_weight_campaign(benchmark):
    """End to end, both aggregates must preserve CMFuzz's win."""

    def experiment():
        return (
            repeated("mosquitto", "cmfuzz", seed=37,
                     mode_factory=lambda: CmFuzzMode(aggregate="max"),
                     repetitions=2),
            repeated("mosquitto", "cmfuzz", seed=37,
                     mode_factory=lambda: CmFuzzMode(aggregate="mean"),
                     repetitions=2),
            repeated("mosquitto", "peach", seed=37, repetitions=2),
        )

    max_runs, mean_runs, peach_runs = benchmark.pedantic(experiment, rounds=1, iterations=1)
    max_cov = mean([r.final_coverage for r in max_runs])
    mean_cov = mean([r.final_coverage for r in mean_runs])
    peach_cov = mean([r.final_coverage for r in peach_runs])
    print("\nAblation A3 campaign: max=%.0f mean=%.0f peach=%.0f"
          % (max_cov, mean_cov, peach_cov))
    assert max_cov > peach_cov
    assert mean_cov > peach_cov
