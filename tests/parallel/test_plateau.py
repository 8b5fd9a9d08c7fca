"""Tests for the plateau mode: rotate cheap first, escalate late.

The controller contract: a flat coverage slope first rotates the
instance's mutation strategy (no restart, no simulated-time cost);
only after ``escalate_after`` consecutive plateaued checks does the
instance pay for CMFuzz's configuration mutation, after which the base
strategy is restored and the detector epoch restarts.
"""

import pickle

import pytest

from repro.harness.campaign import (
    CampaignConfig,
    _CampaignContext,
    _safe_initial_start,
    run_campaign,
)
from repro.harness.export import results_to_json
from repro.parallel.plateau import _POOLS, PlateauMode
from repro.targets import get_target
from repro.targets.dns.server import DnsmasqTarget


def _running(escalate_after=2, window=10.0, n_instances=2, seed=5):
    config = CampaignConfig(n_instances=n_instances, seed=seed)
    ctx = _CampaignContext(DnsmasqTarget, get_target("dnsmasq").state_model(),
                          config)
    mode = PlateauMode(plateau_window=window, escalate_after=escalate_after)
    ctx.instances = mode.create_instances(ctx)
    for instance in ctx.instances:
        _safe_initial_start(ctx, instance)
    return ctx, mode


class TestController:
    def test_first_plateau_rotates_without_restart(self):
        ctx, mode = _running()
        base = {i.index: i.engine.strategy for i in ctx.instances}
        mode.on_sync(ctx)               # arms the epoch, no decision yet
        assert all(i.engine.strategy is base[i.index] for i in ctx.instances)
        ctx.clock.advance(11.0)
        mode.on_sync(ctx)               # flat for a full window: rotate
        for instance in ctx.instances:
            assert instance.engine.strategy is not base[instance.index]
            assert instance.config_mutations == 0
            assert instance.down_until == 0.0  # rotation is free

    def test_rotation_cycles_through_profiles(self):
        ctx, mode = _running(escalate_after=10)
        mode.on_sync(ctx)
        seen = []
        for _ in range(len(mode.profiles)):
            ctx.clock.advance(11.0)
            mode.on_sync(ctx)
            strategy = ctx.instances[0].engine.strategy
            seen.append((strategy.max_fields, strategy.valid_ratio))
        expected = [(f, r) for f, r, _pool in mode.profiles]
        assert seen == expected

    def test_escalation_after_persistent_plateau(self):
        ctx, mode = _running(escalate_after=2)
        base = {i.index: i.engine.strategy for i in ctx.instances}
        mode.on_sync(ctx)
        for _ in range(2):              # two rotations, still no restart
            ctx.clock.advance(11.0)
            mode.on_sync(ctx)
        assert all(i.config_mutations == 0 for i in ctx.instances)
        ctx.clock.advance(11.0)
        mode.on_sync(ctx)               # third consecutive stall: escalate
        mutated = [i for i in ctx.instances if i.config_mutations]
        assert mutated, "persistent plateau must escalate to config mutation"
        for instance in mutated:
            # The base strategy is restored for the new configuration.
            assert instance.engine.strategy is base[instance.index]
            assert instance.down_until > ctx.clock.now

    def test_escalation_restarts_the_epoch(self):
        ctx, mode = _running(escalate_after=1)
        mode.on_sync(ctx)
        ctx.clock.advance(11.0)
        mode.on_sync(ctx)               # rotate (stall 1)
        ctx.clock.advance(11.0)
        mode.on_sync(ctx)               # escalate (stall 2)
        escalated = [i for i in ctx.instances if i.config_mutations]
        assert escalated
        first = {i.index: i.config_mutations for i in escalated}
        # After escalation the fresh epoch grants a full grace window:
        # the sync that re-arms the detector (past the restart downtime)
        # must not escalate again.
        latest = max(i.down_until for i in escalated)
        ctx.clock.advance(max(latest - ctx.clock.now, 0.0) + 1.0)
        mode.on_sync(ctx)
        for instance in escalated:
            assert instance.config_mutations == first[instance.index]

    def test_saturation_detectors_stay_idle(self):
        """The plateau controller owns the trigger; CMFuzz's saturation
        path must not double-fire underneath it."""
        ctx, mode = _running(escalate_after=100, window=1000.0)
        mode.on_sync(ctx)
        # Far past the *saturation* window default, inside the plateau
        # window: nothing may mutate.
        ctx.clock.advance(900.0)
        mode.on_sync(ctx)
        assert all(i.config_mutations == 0 for i in ctx.instances)

    def test_revival_gets_fresh_epoch_and_zero_stalls(self):
        ctx, mode = _running()
        victim = ctx.instances[0]
        mode.on_sync(ctx)
        ctx.clock.advance(6.0)
        victim.quarantined = True
        mode.on_instance_lost(ctx, victim)
        ctx.clock.advance(30.0)         # quarantined far past the window
        victim.quarantined = False
        mode.on_instance_revived(ctx, victim)
        base = victim.engine.strategy
        mutations = victim.config_mutations
        ctx.clock.advance(max(victim.down_until - ctx.clock.now, 0.0) + 1.0)
        mode.on_sync(ctx)               # first post-revival check
        # A stale detector would read the quarantine gap as a plateau
        # and rotate/escalate immediately; the fresh epoch must not.
        assert victim.engine.strategy is base
        assert victim.config_mutations == mutations
        assert mode._stalls[victim.index] == 0


class TestConstruction:
    def test_invalid_escalate_after(self):
        with pytest.raises(ValueError):
            PlateauMode(escalate_after=0)

    def test_unknown_pool_rejected(self):
        with pytest.raises(ValueError, match="unknown mutator pool"):
            PlateauMode(profiles=((2, 0.5, "nonsense"),))

    def test_pools_are_picklable(self):
        for name, pool in _POOLS.items():
            assert pickle.loads(pickle.dumps(pool)), name


class TestDeterminism:
    def test_same_seed_same_export(self):
        config = CampaignConfig(n_instances=2, duration_hours=1.0, seed=11,
                                sample_interval=300.0)

        def run():
            return results_to_json([run_campaign(
                DnsmasqTarget, get_target("dnsmasq").state_model(),
                PlateauMode(), config)])

        assert run() == run()
