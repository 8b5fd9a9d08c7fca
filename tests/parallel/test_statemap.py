"""Tests for the statemap mode: reverse-state selection scheduling."""

import pickle

from repro.fuzzing.engine import IterationResult
from repro.harness.campaign import CampaignConfig, _CampaignContext, run_campaign
from repro.harness.export import results_to_json
from repro.parallel.statemap import StateMapMode
from repro.targets import get_target
from repro.targets.dns.server import DnsmasqTarget
from repro.targets.mqtt.pit import state_model
from repro.targets.mqtt.server import MosquittoTarget


def _ctx(n_instances=2, seed=1):
    config = CampaignConfig(n_instances=n_instances, seed=seed)
    return _CampaignContext(MosquittoTarget, state_model(), config)


def _result(path):
    return IterationResult(new_sites=frozenset(), path=list(path))


class TestVisitCounting:
    def test_every_model_state_starts_at_zero(self):
        ctx = _ctx()
        mode = StateMapMode()
        mode.create_instances(ctx)
        states = {s for path in state_model().simple_paths(max_length=8)
                  for s in path}
        assert set(mode._visits) == states
        assert all(v == 0 for v in mode._visits.values())

    def test_walked_paths_feed_the_counter(self):
        ctx = _ctx()
        mode = StateMapMode()
        instances = mode.create_instances(ctx)
        mode.after_iteration(ctx, instances[0], _result(["a", "b", "a"]))
        mode.after_iteration(ctx, instances[1], _result(["b"]))
        assert mode._visits["a"] == 2
        assert mode._visits["b"] == 2

    def test_rarest_states_rank_by_count_then_name(self):
        mode = StateMapMode()
        mode._visits = {"zeta": 0, "alpha": 0, "mid": 3, "hot": 9}
        assert mode._rarest_states(3) == ["alpha", "zeta", "mid"]


class TestRedirection:
    def _synced(self, n_instances=2):
        ctx = _ctx(n_instances=n_instances)
        mode = StateMapMode()
        ctx.instances = mode.create_instances(ctx)
        for instance in ctx.instances:
            instance.start()
        return ctx, mode

    def test_sync_points_instances_at_rare_states(self):
        ctx, mode = self._synced()
        # Make one state conspicuously hot; everything else stays rare.
        hot = sorted(mode._visits)[0]
        for _ in range(50):
            mode.after_iteration(ctx, ctx.instances[0], _result([hot]))
        mode.on_sync(ctx)
        for instance in ctx.instances:
            focus = mode._focus[instance.index]
            assert focus != hot
            allowed = instance.engine.allowed_paths
            assert allowed, "sync must narrow the walk"
            assert all(focus in path for path in allowed)

    def test_rotation_spreads_focus_across_syncs(self):
        ctx, mode = self._synced()
        focuses = set()
        for _ in range(4):
            mode.on_sync(ctx)
            focuses.add(mode._focus[ctx.instances[0].index])
            # The focused states accrue visits, changing the ranking.
            for instance in ctx.instances:
                mode.after_iteration(
                    ctx, instance, _result([mode._focus[instance.index]]))
        assert len(focuses) > 1, "an instance must not camp on one state"

    def test_sync_also_shares_seeds(self):
        ctx, mode = self._synced()
        message = state_model().data_model("Connect").build()
        ctx.instances[0].engine.add_seed(message)
        mode.on_sync(ctx)
        assert len(ctx.instances[1].engine.corpus) == 1

    def test_lost_instance_focus_is_dropped_and_reassigned(self):
        ctx, mode = self._synced()
        mode.on_sync(ctx)
        victim = ctx.instances[0]
        victim.quarantined = True
        mode.on_instance_lost(ctx, victim)
        assert victim.index not in mode._focus
        mode.on_sync(ctx)               # survivors re-cover the ranking
        assert mode._focus[ctx.instances[1].index] is not None
        assert victim.index not in mode._focus

    def test_revived_instance_rejoins_on_uniform_walk(self):
        ctx, mode = self._synced()
        mode.on_sync(ctx)
        victim = ctx.instances[0]
        victim.quarantined = True
        mode.on_instance_lost(ctx, victim)
        victim.quarantined = False
        mode.on_instance_revived(ctx, victim)
        assert victim.engine.allowed_paths is None
        mode.on_sync(ctx)               # next sync reassigns a focus
        assert victim.engine.allowed_paths

    def test_mode_state_is_picklable(self):
        ctx, mode = self._synced()
        mode.on_sync(ctx)
        clone = pickle.loads(pickle.dumps(mode))
        assert clone._visits == mode._visits
        assert clone._focus == mode._focus
        assert clone._syncs == mode._syncs


class TestDeterminism:
    def test_same_seed_same_export(self):
        config = CampaignConfig(n_instances=2, duration_hours=1.0, seed=13,
                                sample_interval=300.0)

        def run():
            return results_to_json([run_campaign(
                DnsmasqTarget, get_target("dnsmasq").state_model(),
                StateMapMode(), config)])

        assert run() == run()
