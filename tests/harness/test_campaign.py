"""Tests for the campaign runner (short simulated campaigns)."""

import pytest

from repro.harness.campaign import CampaignConfig, run_campaign, run_repeated
from repro.harness.simclock import CostModel
from repro.parallel.cmfuzz import CmFuzzMode
from repro.parallel.peach import PeachParallelMode
from repro.targets import get_target
from repro.targets.mqtt.server import MosquittoTarget


def _short_config(**overrides):
    defaults = dict(
        n_instances=2,
        duration_hours=1.0,
        seed=3,
        costs=CostModel(iteration=30.0),
        sample_interval=300.0,
        sync_interval=300.0,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def _mqtt_pit():
    return get_target("mosquitto").state_model()


class TestRunCampaign:
    def test_produces_monotone_coverage_series(self):
        result = run_campaign(MosquittoTarget, _mqtt_pit(), PeachParallelMode(),
                              _short_config())
        values = [v for _, v in result.coverage.points()]
        assert values == sorted(values)
        assert result.final_coverage > 0

    def test_series_spans_the_horizon(self):
        result = run_campaign(MosquittoTarget, _mqtt_pit(), PeachParallelMode(),
                              _short_config())
        assert result.coverage.final_time == pytest.approx(3600.0)

    def test_iterations_counted(self):
        result = run_campaign(MosquittoTarget, _mqtt_pit(), PeachParallelMode(),
                              _short_config())
        # 2 instances x 120 rounds, minus crash downtime.
        assert 0 < result.iterations <= 240

    def test_result_metadata(self):
        result = run_campaign(MosquittoTarget, _mqtt_pit(), PeachParallelMode(),
                              _short_config())
        assert result.mode == "peach"
        assert result.target == "mosquitto"
        assert len(result.instances) == 2

    def test_deterministic_for_fixed_seed(self):
        first = run_campaign(MosquittoTarget, _mqtt_pit(), PeachParallelMode(),
                             _short_config())
        second = run_campaign(MosquittoTarget, _mqtt_pit(), PeachParallelMode(),
                              _short_config())
        assert first.final_coverage == second.final_coverage
        assert first.iterations == second.iterations

    def test_different_seeds_differ(self):
        first = run_campaign(MosquittoTarget, _mqtt_pit(), PeachParallelMode(),
                             _short_config(seed=1))
        second = run_campaign(MosquittoTarget, _mqtt_pit(), PeachParallelMode(),
                              _short_config(seed=2))
        assert (first.final_coverage, first.iterations) != \
            (second.final_coverage, second.iterations)

    def test_cmfuzz_mode_runs_end_to_end(self):
        result = run_campaign(MosquittoTarget, _mqtt_pit(),
                              CmFuzzMode(max_combinations=4),
                              _short_config(duration_hours=2.0))
        assert result.mode == "cmfuzz"
        assert result.final_coverage > 0

    def test_namespaces_cleaned_up(self):
        result = run_campaign(MosquittoTarget, _mqtt_pit(), PeachParallelMode(),
                              _short_config())
        for instance in result.instances:
            assert instance.namespace.destroyed

    @pytest.mark.xfail(strict=True, reason=(
        "sites a restart's startup() hits enter the collector's total and "
        "run_new, but the next start_run() drops run_new before the loop "
        "reads it, so the exported coverage misses them"))
    def test_final_coverage_is_the_union_of_instance_totals(self):
        result = run_campaign(MosquittoTarget, _mqtt_pit(), CmFuzzMode(),
                              CampaignConfig(n_instances=4,
                                             duration_hours=12.0, seed=1))
        union = set()
        for instance in result.instances:
            union |= instance.collector.total
        assert result.final_coverage == len(union)

    def test_invalid_config_rejected(self):
        with pytest.raises(Exception):
            CampaignConfig(n_instances=0)
        with pytest.raises(Exception):
            CampaignConfig(duration_hours=0)


class TestRunRepeated:
    def test_five_repetitions_distinct_seeds(self):
        results = run_repeated(
            MosquittoTarget, _mqtt_pit_factory, PeachParallelMode,
            repetitions=3, config=_short_config(),
        )
        assert len(results) == 3
        coverages = {r.final_coverage for r in results}
        assert len(coverages) >= 2  # seeds actually differ


def _mqtt_pit_factory():
    return get_target("mosquitto").state_model()
