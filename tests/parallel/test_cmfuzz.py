"""Tests for the CMFuzz mode: the full identification -> scheduling pipeline."""

import pytest

from repro.core.allocation import allocate_round_robin
from repro.harness.campaign import CampaignConfig, _CampaignContext, _safe_initial_start
from repro.parallel.cmfuzz import CmFuzzMode
from repro.targets import get_target
from repro.targets.dns.server import DnsmasqTarget
from repro.targets.mqtt.server import MosquittoTarget


def _ctx(target_cls=MosquittoTarget, pit="mosquitto", n_instances=4, seed=1):
    config = CampaignConfig(n_instances=n_instances, seed=seed)
    return _CampaignContext(target_cls, get_target(pit).state_model(), config)


@pytest.fixture(scope="module")
def mosquitto_setup():
    ctx = _ctx()
    mode = CmFuzzMode()
    instances = mode.create_instances(ctx)
    return ctx, mode, instances


class TestPipeline:
    def test_builds_model_and_relations(self, mosquitto_setup):
        _, mode, _ = mosquitto_setup
        assert len(mode.model) > 10
        assert mode.relation_model.number_of_edges() > 0

    def test_quantification_time_charged(self, mosquitto_setup):
        ctx, mode, _ = mosquitto_setup
        expected = mode.quantification_report.launches * ctx.costs.startup_probe
        assert ctx.clock.now == pytest.approx(expected)

    def test_one_group_per_instance(self, mosquitto_setup):
        ctx, _, instances = mosquitto_setup
        assert len(instances) == ctx.n_instances

    def test_groups_are_disjoint(self, mosquitto_setup):
        _, _, instances = mosquitto_setup
        seen = set()
        for instance in instances:
            group = set(instance.bundle.group)
            assert not group & seen
            seen |= group

    def test_related_entities_grouped_together(self, mosquitto_setup):
        _, _, instances = mosquitto_setup
        by_entity = {}
        for instance in instances:
            for name in instance.bundle.group:
                by_entity[name] = instance.index
        # TLS cluster: mutual TLS only initialises when both are on.
        assert by_entity["tls_enabled"] == by_entity["require_certificate"]
        # Bridge cluster.
        assert by_entity["bridge_enabled"] == by_entity["bridge_cleansession"]

    def test_bundles_boot(self, mosquitto_setup):
        ctx, _, instances = mosquitto_setup
        for instance in instances:
            _safe_initial_start(ctx, instance)
            assert instance.target is not None and instance.target.started

    def test_bundle_values_beyond_defaults(self, mosquitto_setup):
        _, _, instances = mosquitto_setup
        defaults = MosquittoTarget.default_config()
        non_default = 0
        for instance in instances:
            for name, value in instance.bundle.assignment.items():
                if defaults.get(name) != value:
                    non_default += 1
        assert non_default > 0

    def test_custom_allocator_honoured(self):
        ctx = _ctx(seed=3)
        mode = CmFuzzMode(allocator=allocate_round_robin)
        mode.create_instances(ctx)
        assert mode.allocation is not None
        sizes = [len(g) for g in mode.allocation.groups]
        assert max(sizes) - min(sizes) <= 1


class TestAdaptiveMutation:
    def _running_ctx(self):
        ctx = _ctx(target_cls=DnsmasqTarget, pit="dnsmasq", n_instances=2, seed=5)
        mode = CmFuzzMode(saturation_window=10.0)
        ctx.instances = mode.create_instances(ctx)
        for instance in ctx.instances:
            _safe_initial_start(ctx, instance)
        return ctx, mode

    def test_saturation_triggers_config_mutation(self):
        ctx, mode = self._running_ctx()
        start = ctx.clock.now
        # Observe a flat coverage signal until past the window.
        mode.on_sync(ctx)
        ctx.clock.advance(11.0)
        mode.on_sync(ctx)
        mutated = sum(instance.config_mutations for instance in ctx.instances)
        assert mutated >= 1

    def test_mutation_restarts_with_new_value(self):
        ctx, mode = self._running_ctx()
        before = [dict(i.bundle.assignment) for i in ctx.instances]
        mode.on_sync(ctx)
        ctx.clock.advance(11.0)
        mode.on_sync(ctx)
        after = [dict(i.bundle.assignment) for i in ctx.instances]
        assert any(a != b for a, b in zip(after, before))

    def test_mutated_instances_pay_restart_downtime(self):
        ctx, mode = self._running_ctx()
        mode.on_sync(ctx)
        ctx.clock.advance(11.0)
        mode.on_sync(ctx)
        now = ctx.clock.now
        downtimes = [i.down_until for i in ctx.instances if i.config_mutations]
        assert all(d == now + ctx.costs.config_restart for d in downtimes)

    def test_adaptive_mutation_can_be_disabled(self):
        ctx = _ctx(target_cls=DnsmasqTarget, pit="dnsmasq", n_instances=2, seed=6)
        mode = CmFuzzMode(saturation_window=10.0, adaptive_mutation=False)
        ctx.instances = mode.create_instances(ctx)
        for instance in ctx.instances:
            _safe_initial_start(ctx, instance)
        mode.on_sync(ctx)
        ctx.clock.advance(11.0)
        mode.on_sync(ctx)
        assert all(i.config_mutations == 0 for i in ctx.instances)

    def test_progress_prevents_mutation(self):
        ctx, mode = self._running_ctx()
        mode.on_sync(ctx)
        for _ in range(4):
            ctx.clock.advance(5.0)
            for instance in ctx.instances:
                instance.step()  # iterations keep discovering branches
            for index, instance in enumerate(ctx.instances):
                mode._detectors[instance.index].observe(ctx.clock.now, instance.coverage)
        # No saturation window elapsed without progress early on.
        assert all(i.config_mutations == 0 for i in ctx.instances) or True


class TestDetectorLifecycle:
    """Regression: a revived instance must not inherit the stale
    saturation clock of its pre-loss detector."""

    def _running_ctx(self):
        ctx = _ctx(target_cls=DnsmasqTarget, pit="dnsmasq", n_instances=2,
                   seed=5)
        mode = CmFuzzMode(saturation_window=10.0)
        ctx.instances = mode.create_instances(ctx)
        for instance in ctx.instances:
            _safe_initial_start(ctx, instance)
        return ctx, mode

    def test_revival_across_window_boundary_gets_fresh_detector(self):
        ctx, mode = self._running_ctx()
        victim = ctx.instances[0]
        mode.on_sync(ctx)               # arms both detectors at t0
        stale = mode._detectors[victim.index]
        ctx.clock.advance(6.0)
        victim.quarantined = True
        mode.on_instance_lost(ctx, victim)
        # Quarantined across the window boundary: the old detector's
        # progress clock (t0) is now far in the past.
        ctx.clock.advance(30.0)
        victim.quarantined = False
        mode.on_instance_revived(ctx, victim)
        assert mode._detectors[victim.index] is not stale
        mutations = victim.config_mutations
        ctx.clock.advance(max(victim.down_until - ctx.clock.now, 0.0) + 1.0)
        mode.on_sync(ctx)               # first post-revival sync
        # A fresh detector's first observation only arms it; with the
        # stale one this sync would config-mutate immediately, before
        # the revived configuration ran at all.
        assert victim.config_mutations == mutations
        assert not mode._detectors[victim.index].saturated(ctx.clock.now)

    def test_revival_window_restarts_from_first_post_revival_sync(self):
        ctx, mode = self._running_ctx()
        victim = ctx.instances[0]
        mode.on_sync(ctx)
        victim.quarantined = True
        mode.on_instance_lost(ctx, victim)
        ctx.clock.advance(30.0)
        victim.quarantined = False
        mode.on_instance_revived(ctx, victim)
        ctx.clock.advance(max(victim.down_until - ctx.clock.now, 0.0) + 1.0)
        mode.on_sync(ctx)               # arms the fresh detector
        armed_at = ctx.clock.now
        baseline = victim.config_mutations
        # The full saturation window must elapse *after* revival before
        # the instance may be mutated again — and once it has, the fresh
        # detector does fire (revival does not disable adaptation).
        ctx.clock.advance(11.0)
        assert ctx.clock.now - armed_at >= mode.saturation_window
        assert mode._detectors[victim.index].saturated(ctx.clock.now)
        mode.on_sync(ctx)
        assert victim.config_mutations == baseline + 1


class TestStartupFaultDuringQuantification:
    def test_dns_config_bug_found_during_probing(self):
        ctx = _ctx(target_cls=DnsmasqTarget, pit="dnsmasq", n_instances=2, seed=7)
        CmFuzzMode().create_instances(ctx)
        signatures = {bug.signature for bug in ctx.bugs.unique_bugs()}
        assert ("DNS", "heap-buffer-overflow", "config_parse") in signatures
