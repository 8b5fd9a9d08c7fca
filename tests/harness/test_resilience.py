"""Resilience acceptance tests: campaigns under deterministic chaos.

``CMFUZZ_CHAOS_LEVEL`` overrides the injected fault intensity (CI's
chaos smoke job runs the suite at 0.2; the local default of 0.3 matches
the acceptance criteria of the supervision PR).
"""

import os

import pytest

from repro.harness.campaign import CampaignConfig, run_campaign
from repro.harness.executor import CampaignSpec, execute_specs, outcomes
from repro.harness.experiments import (
    chaos_config,
    resilience_experiment,
    retention,
)
from repro.harness.supervisor import event_counts
from repro.parallel import create_mode, mode_names
from repro.targets import get_target, target_names

CHAOS_LEVEL = float(os.environ.get("CMFUZZ_CHAOS_LEVEL", "0.3"))
TARGETS = target_names()


def _base_config(seed=0):
    return CampaignConfig(n_instances=4, duration_hours=4.0, seed=seed)


def _chaos(seed=0, level=CHAOS_LEVEL):
    return chaos_config(_base_config(seed), level, chaos_seed=0)


def _run(target, config, mode="cmfuzz"):
    entry = get_target(target)
    return run_campaign(entry.target_cls, entry.state_model(),
                        create_mode(mode), config)


class TestChaosDeterminism:
    def test_same_seeds_bit_identical_including_event_log(self):
        first = _run("dnsmasq", _chaos())
        second = _run("dnsmasq", _chaos())
        assert first.coverage.points() == second.coverage.points()
        assert first.supervisor_events == second.supervisor_events
        assert first.bugs.snapshot() == second.bugs.snapshot()
        assert first.iterations == second.iterations

    @pytest.mark.parametrize("mode", mode_names())
    def test_pooled_workers_match_in_process(self, mode):
        specs = [CampaignSpec(target="dnsmasq", mode=mode, config=_chaos())]
        solo = outcomes(execute_specs(specs, workers=1, cache=False))[0]
        pooled = outcomes(execute_specs(specs, workers=2, cache=False))[0]
        assert solo.final_coverage == pooled.final_coverage
        assert solo.coverage_points == pooled.coverage_points
        assert solo.supervisor_events == pooled.supervisor_events
        assert solo.bug_entries == pooled.bug_entries
        assert [(s.quarantined, s.hangs) for s in solo.instance_stats] == [
            (s.quarantined, s.hangs) for s in pooled.instance_stats
        ]


@pytest.mark.parametrize("target", TARGETS)
class TestChaosAcceptance:
    """Every target must survive a chaotic 4-instance CMFuzz campaign."""

    def test_campaign_completes_horizon_with_bounded_coverage_loss(self, target):
        chaotic = _run(target, _chaos())
        baseline = _run(target, _base_config())
        horizon = 4.0 * 3600.0
        assert chaotic.coverage.points()[-1][0] == horizon
        assert chaotic.final_coverage >= 0.75 * baseline.final_coverage


class TestQuarantineRevivalCycle:
    def test_cycle_exercised_end_to_end(self):
        # Pinned configuration known (deterministically) to push one
        # instance through quarantine and back: dnsmasq, seed 0,
        # chaos level 0.3 with the for_chaos supervision policy.
        result = _run("dnsmasq", _chaos(level=0.3))
        counts = event_counts(result.supervisor_events)
        assert counts.get("quarantine", 0) >= 1
        assert counts.get("revive", 0) >= 1
        assert counts.get("restart", 0) >= 1
        revived = {e.instance for e in result.supervisor_events
                   if e.kind == "revive"}
        assert any(not result.instances[i].dead for i in revived)


class TestChaosFreePathUnchanged:
    def test_zero_level_config_is_the_original_config(self):
        base = _base_config()
        assert chaos_config(base, 0.0) is base

    def test_chaos_free_campaign_emits_no_noise_events(self):
        # A healthy target under the default policy: the supervisor log
        # only ever contains plain crash-recovery restarts.
        result = _run("mosquitto", _base_config())
        assert all(e.kind == "restart" for e in result.supervisor_events)


class TestResilienceExperiment:
    def test_grid_reports_retention_and_event_counts(self):
        grid = resilience_experiment(
            "dnsmasq", chaos_levels=(0.0, CHAOS_LEVEL), fuzzers=("cmfuzz",),
            repetitions=1, config=CampaignConfig(n_instances=2,
                                                 duration_hours=2.0, seed=0),
        )
        assert set(grid) == {0.0, CHAOS_LEVEL}
        cell = grid[CHAOS_LEVEL]["cmfuzz"]
        assert cell.mean_coverage > 0
        assert sum(cell.supervisor_event_counts.values()) >= 0
        assert 0.0 < retention(grid, CHAOS_LEVEL, "cmfuzz") <= 1.5
