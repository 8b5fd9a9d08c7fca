"""Tests for the hybrid CMFuzz x SPFuzz extension mode."""


from repro.harness.campaign import (
    CampaignConfig,
    _CampaignContext,
    _safe_initial_start,
    run_campaign,
)
from repro.parallel.hybrid import HybridMode
from repro.targets import get_target
from repro.targets.mqtt.server import MosquittoTarget


def _ctx(n_instances=4, seed=1):
    config = CampaignConfig(n_instances=n_instances, seed=seed)
    return _CampaignContext(MosquittoTarget, get_target("mosquitto").state_model(), config)


class TestHybridSetup:
    def test_instances_carry_config_groups(self):
        ctx = _ctx()
        instances = HybridMode().create_instances(ctx)
        assert any(instance.bundle.group for instance in instances)

    def test_instances_carry_path_partitions(self):
        ctx = _ctx()
        instances = HybridMode().create_instances(ctx)
        for instance in instances:
            _safe_initial_start(ctx, instance)
            assert instance.engine.allowed_paths

    def test_partitions_cover_all_paths(self):
        ctx = _ctx(n_instances=2)
        instances = HybridMode().create_instances(ctx)
        all_paths = set(ctx.state_model.simple_paths(max_length=8))
        union = set()
        for instance in instances:
            _safe_initial_start(ctx, instance)
            union |= set(instance.engine.allowed_paths)
        assert union == all_paths

    def test_sync_shares_seeds(self):
        ctx = _ctx(n_instances=2)
        mode = HybridMode()
        ctx.instances = mode.create_instances(ctx)
        for instance in ctx.instances:
            _safe_initial_start(ctx, instance)
        message = ctx.state_model.data_model("Connect").build()
        ctx.instances[0].engine.add_seed(message)
        mode.on_sync(ctx)
        assert ctx.instances[1].engine.corpus


class TestHybridCampaign:
    def test_runs_end_to_end(self):
        result = run_campaign(
            MosquittoTarget, get_target("mosquitto").state_model(), HybridMode(),
            CampaignConfig(n_instances=2, duration_hours=2.0, seed=9),
        )
        assert result.mode == "hybrid"
        assert result.final_coverage > 0

    def test_composes_both_axes(self):
        """Hybrid keeps CMFuzz's configuration win over plain Peach."""
        from repro.parallel.peach import PeachParallelMode

        config = CampaignConfig(n_instances=4, duration_hours=8.0, seed=9)
        hybrid = run_campaign(MosquittoTarget, get_target("mosquitto").state_model(),
                              HybridMode(), config)
        peach = run_campaign(MosquittoTarget, get_target("mosquitto").state_model(),
                             PeachParallelMode(), config)
        assert hybrid.final_coverage > peach.final_coverage
