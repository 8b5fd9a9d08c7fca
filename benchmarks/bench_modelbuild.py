"""Model-build pipeline benchmark: sequential vs pooled vs warm cache.

Quantifies the relation graph of the DNS entity set (the paper's best
subject) three ways and records the wall-clock in
``BENCH_modelbuild.json``:

1. sequential — one in-process probe at a time;
2. pooled — the same probes fanned across worker processes;
3. warm cache — a rebuild served entirely from the content-addressed
   probe cache (zero launches).

Startup launches of a real SUT cost milliseconds-to-seconds of process
spawn; the simulation's in-process probes cost microseconds, which would
make any scheduling comparison meaningless. The ``startup_latency``
probe shim restores a realistic per-launch cost (default 5 ms, override
with ``CMFUZZ_BENCH_PROBE_MS``) — because the cost is sleep-bound, the
pooled speedup is robust even on two-core CI runners.

All three runs must produce bit-identical relation weights and best
values; the warm rebuild must execute zero probes.

A fourth, in-process leg times the model build a ``cmfuzz`` campaign
pays at set-up: mosquitto at the mode's ``max_combinations=16``, zero
startup latency, fastest of ``CMFUZZ_BENCH_INPROCESS_REPS`` builds. It
records ``inprocess_seconds`` and splits it into the
``modelbuild.plan``/``execute``/``replay`` span totals plus the
remainder, so the four parts add up to the wall.

Runs with the bench suite (``pytest benchmarks/bench_modelbuild.py``)
or standalone (``python benchmarks/bench_modelbuild.py``).
"""

import json
import os
import sys
import tempfile
import time

import conftest  # noqa: F401  (adds src/ to sys.path)

from repro.api import extract_model
from repro.core.probes import build_probe_executor
from repro.core.relation import RelationQuantifier
from repro.targets import target_names
from repro.telemetry import Telemetry
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer

TARGET = "dnsmasq"
PROBE_LATENCY = float(os.environ.get("CMFUZZ_BENCH_PROBE_MS", "5")) / 1000.0
MAX_COMBINATIONS = int(os.environ.get("CMFUZZ_BENCH_COMBOS", "8"))
WORKERS = int(os.environ.get("CMFUZZ_BENCH_PROBE_WORKERS", "4"))
MIN_SPEEDUP = float(os.environ.get("CMFUZZ_BENCH_MIN_SPEEDUP", "2.0"))
INPROCESS_TARGET = "mosquitto"
INPROCESS_COMBINATIONS = 16
INPROCESS_REPS = int(os.environ.get("CMFUZZ_BENCH_INPROCESS_REPS", "7"))
RECORD_PATH = os.environ.get(
    "CMFUZZ_BENCH_OUT",
    os.path.join(os.path.dirname(os.path.abspath(__file__)),
                 "BENCH_modelbuild.json"),
)


def _quantify(workers=1, cache=False, cache_dir=None):
    model = extract_model(TARGET)
    executor = build_probe_executor(
        TARGET, workers=workers, cache=cache, cache_dir=cache_dir,
        startup_latency=PROBE_LATENCY,
    )
    quantifier = RelationQuantifier(executor=executor,
                                    max_combinations=MAX_COMBINATIONS)
    start = time.perf_counter()
    relation_model, report = quantifier.quantify(model)
    elapsed = time.perf_counter() - start
    snapshot = {
        "raw": sorted(report.raw_weights.items()),
        "best": sorted(report.best_values.items(), key=lambda kv: kv[0]),
        "edges": sorted(relation_model.edges_by_weight()),
        "launches": report.launches,
    }
    return elapsed, quantifier.last_run_stats, snapshot


class _SpanTotals(Tracer):
    """A tracer that sums span durations by name instead of writing them."""

    def __init__(self):
        super().__init__(time.monotonic)
        self.totals = {}

    def emit(self, record):
        if record["type"] == "span":
            name = record["name"]
            self.totals[name] = self.totals.get(name, 0.0) + record["duration"]


def _inprocess_leg():
    """The fastest in-process build and its plan/execute/replay split."""
    model = extract_model(INPROCESS_TARGET)
    best = None
    for _ in range(INPROCESS_REPS):
        tracer = _SpanTotals()
        quantifier = RelationQuantifier(
            executor=build_probe_executor(INPROCESS_TARGET),
            max_combinations=INPROCESS_COMBINATIONS,
            on_fault=lambda fault: None,
            telemetry=Telemetry(MetricsRegistry(), tracer))
        start = time.perf_counter()
        quantifier.quantify(model)
        wall = time.perf_counter() - start
        if best is None or wall < best[0]:
            best = (wall, tracer.totals, quantifier.last_run_stats)
    wall, totals, stats = best
    wall = round(wall, 4)
    parts = {phase: round(totals.get("modelbuild." + phase, 0.0), 4)
             for phase in ("plan", "execute", "replay")}
    parts["remainder"] = round(wall - sum(parts.values()), 4)
    return wall, parts, stats["executed"]


def run_bench():
    """Returns the ``BENCH_modelbuild.json`` record."""
    inprocess_s, inprocess_parts, inprocess_probes = _inprocess_leg()
    with tempfile.TemporaryDirectory(prefix="cmfuzz-bench-cache-") as cache_dir:
        sequential_s, sequential_stats, sequential_snap = _quantify(workers=1)
        pooled_s, _, pooled_snap = _quantify(workers=WORKERS)
        cold_s, _, cold_snap = _quantify(cache=True, cache_dir=cache_dir)
        warm_s, warm_stats, warm_snap = _quantify(cache=True,
                                                  cache_dir=cache_dir)
    identical = sequential_snap == pooled_snap == cold_snap == warm_snap
    return {
        "bench": "modelbuild",
        "target": TARGET,
        "registry_targets": list(target_names()),
        "max_combinations": MAX_COMBINATIONS,
        "probe_latency_ms": PROBE_LATENCY * 1000.0,
        "workers": WORKERS,
        "launches": sequential_snap["launches"],
        "unique_probes": sequential_stats["executed"],
        "sequential_seconds": round(sequential_s, 4),
        "parallel_seconds": round(pooled_s, 4),
        "cold_cache_seconds": round(cold_s, 4),
        "warm_cache_seconds": round(warm_s, 4),
        "speedup": round(sequential_s / pooled_s, 2) if pooled_s else None,
        "warm_probes_executed": warm_stats["executed"],
        "warm_cache_hits": warm_stats["cache_hits"],
        "identical": identical,
        "inprocess_target": INPROCESS_TARGET,
        "inprocess_max_combinations": INPROCESS_COMBINATIONS,
        "inprocess_probes": inprocess_probes,
        "inprocess_seconds": inprocess_s,
        "inprocess_parts": inprocess_parts,
    }


def _write_record(record):
    with open(RECORD_PATH, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


def test_modelbuild_parallel_and_cache():
    record = run_bench()
    _write_record(record)
    print("\nmodelbuild: %d probes  seq %.2fs  x%d workers %.2fs "
          "(%.1fx)  warm %.3fs (%d hits, %d executed)  in-process %s "
          "%.4fs %s"
          % (record["unique_probes"], record["sequential_seconds"],
             record["workers"], record["parallel_seconds"],
             record["speedup"], record["warm_cache_seconds"],
             record["warm_cache_hits"], record["warm_probes_executed"],
             record["inprocess_target"], record["inprocess_seconds"],
             record["inprocess_parts"]))
    assert record["identical"], "pipeline variants diverged"
    assert record["warm_probes_executed"] == 0, (
        "warm-cache rebuild launched %d probes"
        % record["warm_probes_executed"])
    assert record["speedup"] >= MIN_SPEEDUP, (
        "parallel model build speedup %.2fx below the %.1fx floor"
        % (record["speedup"], MIN_SPEEDUP))


def main() -> int:
    record = run_bench()
    _write_record(record)
    print(json.dumps(record, indent=2, sort_keys=True))
    ok = (record["identical"] and record["warm_probes_executed"] == 0
          and record["speedup"] >= MIN_SPEEDUP)
    if not ok:
        print("FAILED: identical=%s warm_executed=%d speedup=%sx (floor %.1fx)"
              % (record["identical"], record["warm_probes_executed"],
                 record["speedup"], MIN_SPEEDUP), file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
