"""Tests for campaign result export."""

import json

import pytest

from repro.harness.campaign import CampaignConfig, run_campaign
from repro.harness.export import comparison_summary, result_to_dict, results_to_json
from repro.parallel.peach import PeachParallelMode
from repro.targets import get_target
from repro.targets.dns.server import DnsmasqTarget


@pytest.fixture(scope="module")
def result():
    return run_campaign(
        DnsmasqTarget, get_target("dnsmasq").state_model(), PeachParallelMode(),
        CampaignConfig(n_instances=2, duration_hours=2.0, seed=21),
    )


class TestResultToDict:
    def test_contains_core_fields(self, result):
        data = result_to_dict(result)
        assert data["mode"] == "peach"
        assert data["target"] == "dnsmasq"
        assert data["final_coverage"] == result.final_coverage
        assert data["iterations"] == result.iterations

    def test_coverage_points_serialised(self, result):
        data = result_to_dict(result)
        assert data["coverage"][0][0] == 0.0
        assert data["coverage"][-1][1] == result.final_coverage

    def test_bugs_serialised(self, result):
        data = result_to_dict(result)
        for bug in data["bugs"]:
            assert set(bug) == {"protocol", "kind", "function", "detail",
                                "sim_time", "instance"}

    def test_instances_serialised(self, result):
        data = result_to_dict(result)
        assert len(data["instances"]) == 2
        assert all("restarts" in i for i in data["instances"])


class TestJson:
    def test_round_trips_through_json(self, result):
        text = results_to_json([result])
        parsed = json.loads(text)
        assert len(parsed) == 1
        assert parsed[0]["target"] == "dnsmasq"


class TestComparisonSummary:
    def test_aggregates(self, result):
        summary = comparison_summary({"peach": [result, result]})
        entry = summary["peach"]
        assert entry["repetitions"] == 2
        assert entry["mean_coverage"] == result.final_coverage
        assert entry["min_coverage"] == entry["max_coverage"]

    def test_empty_mode(self):
        assert comparison_summary({}) == {}
