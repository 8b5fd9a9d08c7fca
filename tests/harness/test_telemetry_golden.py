"""Telemetry must observe campaigns without changing them.

Golden equivalence: with telemetry disabled the exported JSON is
bit-identical to the historic layout; with it enabled the campaign's
results are unchanged and only a ``metrics`` key is added. These pins
are the cheap, deterministic half of the overhead budget — the wall
clock half lives in ``benchmarks/bench_telemetry.py``.
"""

import json

import pytest

from repro.harness.campaign import CampaignConfig, run_campaign
from repro.harness.export import result_to_dict, results_to_json
from repro.parallel.spfuzz import SpFuzzMode
from repro.targets import get_target
from repro.targets.dns.server import DnsmasqTarget
from repro.telemetry import TelemetryConfig

#: The exported key set before telemetry existed; telemetry-off exports
#: must keep exactly this shape.
GOLDEN_EXPORT_KEYS = {
    "schema_version", "mode", "target", "final_coverage", "iterations",
    "startup_conflicts", "supervisor_events", "supervisor_event_counts",
    "coverage", "bugs", "instances",
}


def _run(telemetry=None, trace_path=None, seed=17):
    if telemetry:
        telemetry = TelemetryConfig(enabled=True, trace_path=trace_path)
    else:
        telemetry = None
    config = CampaignConfig(n_instances=2, duration_hours=2.0, seed=seed,
                            telemetry=telemetry)
    return run_campaign(DnsmasqTarget, get_target("dnsmasq").state_model(),
                        SpFuzzMode(), config)


@pytest.fixture(scope="module")
def off_result():
    return _run(telemetry=False)


@pytest.fixture(scope="module")
def on_result():
    return _run(telemetry=True)


class TestGoldenEquivalence:
    def test_disabled_export_keeps_historic_key_set(self, off_result):
        assert off_result.metrics is None
        assert set(result_to_dict(off_result)) == GOLDEN_EXPORT_KEYS

    def test_enabled_adds_only_the_metrics_key(self, on_result):
        assert set(result_to_dict(on_result)) == \
            GOLDEN_EXPORT_KEYS | {"metrics"}

    def test_enabling_telemetry_does_not_change_the_campaign(
            self, off_result, on_result):
        """Identical seeds; the JSON must match byte for byte after
        stripping the metrics key the enabled run adds."""
        on_data = result_to_dict(on_result)
        del on_data["metrics"]
        off_json = results_to_json([off_result])
        on_json = json.dumps([on_data], indent=2, default=str, sort_keys=True)
        assert off_json == on_json

    def test_disabled_runs_are_bit_identical_to_each_other(self, off_result):
        again = _run(telemetry=False)
        assert results_to_json([off_result]) == results_to_json([again])


class TestMetricsSnapshot:
    def test_snapshot_sections_present(self, on_result):
        assert set(on_result.metrics) == {"counters", "gauges", "histograms"}

    def test_engine_accounting_matches_campaign_totals(self, on_result):
        counters = on_result.metrics["counters"]
        execs = sum(value for key, value in counters.items()
                    if key.startswith("engine.execs"))
        assert execs == on_result.iterations

    def test_coverage_gauge_matches_final_coverage(self, on_result):
        gauges = on_result.metrics["gauges"]
        assert gauges["campaign.global_sites"] == on_result.final_coverage

    def test_healthy_campaign_drops_no_seeds(self, on_result):
        counters = on_result.metrics["counters"]
        dropped = sum(value for key, value in counters.items()
                      if key.startswith("sync.seeds_dropped"))
        assert dropped == 0
        # ... while the sync layer actually moved seeds around.
        assert counters["sync.rounds"] > 0
        assert counters["sync.seeds_broadcast"] > 0

    def test_snapshot_is_deterministic(self, on_result):
        again = _run(telemetry=True)
        assert json.dumps(on_result.metrics, sort_keys=True) == \
            json.dumps(again.metrics, sort_keys=True)

    def test_snapshot_survives_json_round_trip(self, on_result):
        text = results_to_json([on_result])
        assert json.loads(text)[0]["metrics"]["counters"] == \
            on_result.metrics["counters"]


class TestTraceOutput:
    def test_campaign_trace_validates_against_the_schema(self, tmp_path):
        from repro.telemetry import validate_trace_file

        path = str(tmp_path / "trace.jsonl")
        result = _run(telemetry=True, trace_path=path, seed=5)
        assert result.metrics is not None
        count, errors = validate_trace_file(path)
        assert errors == []
        assert count >= 1  # at least the campaign.setup span
