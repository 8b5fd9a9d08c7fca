"""End-to-end integration tests: scaled-down versions of the paper's
experiments, asserting the qualitative claims rather than exact numbers."""

import pytest

from repro.harness.campaign import CampaignConfig, run_campaign
from repro.harness.simclock import CostModel
from repro.harness.stats import speedup
from repro.parallel import create_mode
from repro.targets import get_target
from repro.targets.faults import TABLE_II_BUGS, BugLedger

#: The paper's six subjects — RQ1/RQ2 assert the paper's qualitative
#: claims, which are about these targets (plugin targets added later are
#: covered by the registry/robustness/storm suites instead).
PAPER_SUBJECTS = ("cyclonedds", "dnsmasq", "libcoap", "mosquitto",
                  "openssl", "qpid")


def _config(hours=6.0, seed=11, instances=4):
    return CampaignConfig(
        n_instances=instances,
        duration_hours=hours,
        seed=seed,
        costs=CostModel(iteration=30.0),
        sample_interval=900.0,
        sync_interval=900.0,
    )


def _run(target_name, mode_name, **kwargs):
    entry = get_target(target_name)
    return run_campaign(
        entry.target_cls, entry.state_model(), create_mode(mode_name), _config(**kwargs)
    )


class TestRQ1CoverageShape:
    """RQ1: CMFuzz outperforms the parallel baselines on coverage."""

    @pytest.mark.parametrize("target_name", PAPER_SUBJECTS)
    def test_cmfuzz_beats_peach(self, target_name):
        cmfuzz = _run(target_name, "cmfuzz")
        peach = _run(target_name, "peach")
        assert cmfuzz.final_coverage > peach.final_coverage, target_name

    def test_cmfuzz_beats_spfuzz_on_config_rich_targets(self):
        for target_name in ("mosquitto", "dnsmasq"):
            cmfuzz = _run(target_name, "cmfuzz")
            spfuzz = _run(target_name, "spfuzz")
            assert cmfuzz.final_coverage > spfuzz.final_coverage, target_name

    def test_speedup_at_least_one(self):
        cmfuzz = _run("mosquitto", "cmfuzz")
        peach = _run("mosquitto", "peach")
        assert speedup(peach.coverage, cmfuzz.coverage) >= 1.0

    def test_early_lead_from_startup_configs(self):
        """Figure 4: CMFuzz jumps ahead early via startup-loaded configs."""
        cmfuzz = _run("mosquitto", "cmfuzz")
        peach = _run("mosquitto", "peach")
        early = 3 * 3600.0
        assert cmfuzz.coverage.value_at(early) > peach.coverage.value_at(early)


class TestRQ2BugDetection:
    """RQ2: CMFuzz exposes configuration-gated bugs the baselines miss."""

    def test_cmfuzz_finds_config_gated_mqtt_bugs(self):
        result = _run("mosquitto", "cmfuzz", hours=12.0)
        found = {bug.signature for bug in result.bugs.unique_bugs()}
        gated = {sig for sig in TABLE_II_BUGS if sig[0] == "MQTT"}
        assert found & gated

    def test_cmfuzz_finds_coap_case_study_bug(self):
        result = _run("libcoap", "cmfuzz", hours=12.0)
        signatures = {bug.signature for bug in result.bugs.unique_bugs()}
        assert ("CoAP", "SEGV", "coap_handle_request_put_block") in signatures

    def test_peach_misses_coap_case_study_bug(self):
        result = _run("libcoap", "peach", hours=12.0)
        signatures = {bug.signature for bug in result.bugs.unique_bugs()}
        assert ("CoAP", "SEGV", "coap_handle_request_put_block") not in signatures

    def test_all_bug_signatures_match_table_ii(self):
        merged = BugLedger()
        for target_name in ("mosquitto", "libcoap", "dnsmasq"):
            result = _run(target_name, "cmfuzz", hours=6.0)
            merged.merge(result.bugs)
        table = set(TABLE_II_BUGS)
        for bug in merged.unique_bugs():
            assert bug.signature in table, bug.signature


class TestIsolation:
    def test_instances_have_isolated_coverage_state(self):
        result = _run("mosquitto", "peach", hours=1.0)
        collectors = {id(i.collector) for i in result.instances}
        assert len(collectors) == len(result.instances)

    def test_global_coverage_at_least_best_instance(self):
        result = _run("mosquitto", "peach", hours=1.0)
        best = max(i.coverage for i in result.instances)
        assert result.final_coverage >= best
