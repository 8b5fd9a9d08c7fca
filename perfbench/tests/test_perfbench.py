"""The benchmark's own tests, on a tiny scale.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from ledger import ADDITIVE_LAYERS

TINY = workloads.Scale(campaign_hours=1.0, durable_hours=1.0, campaigns=1,
                       durable_campaigns=1, grid_hours=1.0, min_rounds=2)


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    """Every workload, untraced and traced, measured once."""
    runs = {}
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            workdir = str(tmp_path_factory.mktemp("work"))
            runs[workload, trace] = run.measure(workload, 1, 0.0, trace,
                                                workdir, scale=TINY)
    return runs


def test_benchmark_json_names_what_the_command_prints(measured):
    spec = _spec()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for (workload, trace), (result, units) in measured.items():
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        line = json.loads(json.dumps(run.result_line(result, units)))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"], (workload, trace, result.tally.reasons)
        assert line["attempted"] >= 1 and line["failed"] == 0
        for metric in wanted:
            printed = line["metrics"][metric["name"]]
            assert printed["unit"] == metric["unit"]
            assert isinstance(printed["value"], (int, float))
        if not trace:
            assert all(line["metrics"][m["name"]]["value"] > 0
                       for m in spec["end_to_end"]), (workload, line)


def test_traced_ledger_adds_up_to_wall_time(measured):
    for workload in workloads.WORKLOADS:
        metrics = measured[workload, True][0].metrics
        parts = [metrics[name] for name, _ in ADDITIVE_LAYERS]
        assert all(part >= 0 for part in parts)
        residual = metrics["harness.campaign.loop_self_s"]
        assert residual >= 0
        assert sum(parts) + residual == pytest.approx(metrics["ledger.wall_s"])
        assert metrics["fuzzing.execs"] > 0 and metrics["coverage.calls"] > 0
        assert metrics["ledger.overhead"] > 0
        if workload.startswith("campaign"):
            assert metrics["harness.checkpoint.saves"] > 0
            assert metrics["telemetry.trace_bytes"] > 0
        else:
            assert metrics["harness.pool.attempts"] == 12
            assert metrics["fleet.lease_calls"] > 0


def test_wrappers_are_removed_after_a_traced_run(measured):
    from repro.core import extraction
    from repro.fuzzing.datamodel import Message
    from repro.fuzzing.engine import FuzzEngine
    from repro.parallel import cmfuzz

    for fn in (FuzzEngine.run_iteration, Message.encode,
               cmfuzz.extract_entities):
        assert not hasattr(fn, "__wrapped__")
    assert cmfuzz.extract_entities is extraction.extract_entities


def test_same_seed_reproduces_the_export_and_another_seed_changes_it(tmp_path):
    first = workloads.run_campaigns("campaign", 5, 0.0, str(tmp_path), TINY)
    again = workloads.run_campaigns("campaign", 5, 0.0, str(tmp_path), TINY)
    other = workloads.run_campaigns("campaign", 6, 0.0, str(tmp_path), TINY)
    assert first.tally.failed == again.tally.failed == other.tally.failed == 0
    assert first.digests == again.digests
    assert first.digests != other.digests
    for workload in ("campaign", "campaign-durable"):
        assert (workloads.campaign_configs(5, workload, TINY)
                == workloads.campaign_configs(5, workload, TINY))
        assert (workloads.campaign_configs(5, workload, TINY)
                != workloads.campaign_configs(6, workload, TINY))
    assert workloads.grid_specs(5, TINY) == workloads.grid_specs(5, TINY)
    assert workloads.grid_specs(5, TINY) != workloads.grid_specs(6, TINY)


def test_campaign_parts_add_up_and_the_fastest_of_each_is_taken():
    config = workloads.campaign_configs(1, "campaign", TINY)[0]
    run = workloads.timed_campaign(workloads.CAMPAIGN_TARGET,
                                   workloads.CAMPAIGN_MODE, config)
    # Set-up, one part per sync interval of a 1-hour loop, wrap-up.
    assert len(run.segments) >= 2 + 3600 // workloads.SEGMENT - 1
    assert sum(run.segments) == pytest.approx(run.wall)
    assert run.setup == run.segments[0]
    assert workloads.full_speed_wall([[1.0, 5.0, 2.0],
                                      [3.0, 1.0, 2.5]]) == 4.0


def test_grid_and_fleet_export_the_same_bytes(measured):
    grid = measured["grid", False][0]
    fleet = measured["grid-fleet", False][0]
    assert grid.digests == fleet.digests
    assert grid.tally.failed == fleet.tally.failed == 0


def test_a_diverging_campaign_export_is_counted_as_a_failure(tmp_path,
                                                            monkeypatch):
    exports = iter(["a", "b"])
    monkeypatch.setattr(workloads, "campaign_export",
                        lambda result: next(exports))
    result = workloads.run_campaigns("campaign", 1, 0.0, str(tmp_path), TINY)
    assert (result.tally.attempted, result.tally.failed) == (2, 1)


def test_a_diverging_grid_export_is_counted_as_a_failure(monkeypatch):
    # Two pooled rounds, then the serial reference: round 1 diverges.
    exports = iter(["a", "b", "a"])
    monkeypatch.setattr(workloads, "grid_export",
                        lambda outcomes: next(exports))
    result = workloads.run_cells("grid", 1, 0.0, TINY)
    assert result.tally.failed == 1
    assert result.tally.reasons == [
        "grid round 1 export differs from the serial grid"]


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
