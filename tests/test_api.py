"""Behavioural tests for the ``repro.api`` facade and its shims."""

import pytest

from repro.api import (
    ModelBuildConfig,
    allocate_groups,
    compare_modes,
    extract_model,
    quantify_relations,
    run_campaign,
)
from repro.harness.campaign import CampaignConfig
from repro.harness.export import result_to_dict
from repro.targets.mqtt.server import MosquittoTarget


def _quick_config():
    return CampaignConfig(n_instances=2, duration_hours=2.0, seed=5)


class TestExtractModel:
    def test_by_name_and_by_class_agree(self):
        by_name = extract_model("mosquitto")
        by_class = extract_model(MosquittoTarget)
        assert sorted(e.name for e in by_name.entities()) == \
            sorted(e.name for e in by_class.entities())

    def test_unknown_target(self):
        with pytest.raises(KeyError, match="unknown target"):
            extract_model("nonesuch")


class TestQuantifyRelations:
    def test_default_pipeline(self):
        faults = []
        relation_model, report = quantify_relations(
            "mosquitto", config=ModelBuildConfig(max_combinations=4),
            on_fault=faults.append)
        assert report.launches > 0
        assert relation_model.number_of_edges() > 0

    def test_model_extracted_when_omitted_matches_explicit(self):
        config = ModelBuildConfig(max_combinations=4)
        implicit = quantify_relations("mosquitto", config=config)
        explicit = quantify_relations(
            "mosquitto", extract_model("mosquitto"), config)
        assert implicit[1].raw_weights == explicit[1].raw_weights

    def test_allocation_round_trip(self):
        relation_model, _ = quantify_relations(
            "mosquitto", config=ModelBuildConfig(max_combinations=4))
        allocation = allocate_groups(relation_model, 3)
        assert len(allocation.groups) <= 3
        assert allocation.assignment


class TestRunCampaign:
    def test_unknown_mode(self):
        with pytest.raises(KeyError, match="unknown mode"):
            run_campaign("mosquitto", mode="nonesuch",
                         config=_quick_config())

    def test_legacy_positional_signature_rejected(self):
        from repro.parallel.cmfuzz import CmFuzzMode
        from repro.pits import pit_registry
        from repro.targets import get_target

        with pytest.raises(TypeError, match="legacy positional"):
            run_campaign(
                get_target("mosquitto").target_cls,
                pit_registry()["mosquitto"](),
                CmFuzzMode(),
                _quick_config(),
            )

    def test_live_mode_object_with_registry_target(self):
        from repro.parallel.cmfuzz import CmFuzzMode

        by_name = run_campaign("mosquitto", mode="cmfuzz",
                               config=_quick_config())
        by_mode = run_campaign("mosquitto", mode=CmFuzzMode(),
                               config=_quick_config())
        assert result_to_dict(by_mode) == result_to_dict(by_name)

    def test_cache_round_trip(self, tmp_path):
        config = _quick_config()
        cold = run_campaign("mosquitto", mode="cmfuzz", config=config,
                            cache=True, cache_dir=str(tmp_path))
        warm = run_campaign("mosquitto", mode="cmfuzz", config=config,
                            cache=True, cache_dir=str(tmp_path))
        assert result_to_dict(warm) == result_to_dict(cold)

    def test_cache_requires_registry_mode(self):
        from repro.parallel.cmfuzz import CmFuzzMode

        with pytest.raises(ValueError, match="registry mode name"):
            run_campaign("mosquitto", mode=CmFuzzMode(),
                         config=_quick_config(), cache=True)


class TestCompareModes:
    def test_matches_individual_campaigns(self):
        config = _quick_config()
        comparison = compare_modes("mosquitto", modes=("peach", "cmfuzz"),
                                   config=config)
        assert set(comparison.results) == {"peach", "cmfuzz"}
        solo = run_campaign("mosquitto", mode="cmfuzz", config=config)
        # Executor-run cells rebuild results without live instance
        # objects; everything else must match the direct campaign.
        from_comparison = result_to_dict(comparison.results["cmfuzz"][0])
        direct = result_to_dict(solo)
        from_comparison.pop("instances")
        direct.pop("instances")
        assert from_comparison == direct


class TestDeprecatedWrappersRemoved:
    def test_experiment_wrappers_are_gone(self):
        import repro.harness.experiments as experiments

        for name in ("table1_experiment", "table2_experiment",
                     "figure4_experiment"):
            assert not hasattr(experiments, name)


class TestCampaignProbeOptions:
    def test_probe_workers_validation(self):
        from repro.errors import HarnessError

        with pytest.raises(HarnessError):
            CampaignConfig(probe_workers=0)

    def test_probe_cache_campaign_matches_default(self, tmp_path):
        config = _quick_config()
        default = run_campaign("mosquitto", mode="cmfuzz", config=config)
        cached_cfg = CampaignConfig(
            n_instances=2, duration_hours=2.0, seed=5,
            probe_workers=2, probe_cache=True,
            probe_cache_dir=str(tmp_path))
        pooled = run_campaign("mosquitto", mode="cmfuzz", config=cached_cfg)
        warm = run_campaign("mosquitto", mode="cmfuzz", config=cached_cfg)
        assert result_to_dict(pooled) == result_to_dict(default)
        assert result_to_dict(warm) == result_to_dict(default)
