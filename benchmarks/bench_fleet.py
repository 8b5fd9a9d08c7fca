"""Fleet dispatch benchmark: local pool vs the distributed control plane.

Measures what the coordinator/agent machinery costs over the in-process
pool it must byte-match, and records the results in ``BENCH_fleet.json``:

1. ``local`` — a ``CMFUZZ_BENCH_FLEET_REPS``-cell dnsmasq grid through
   :func:`execute_specs` with two pool workers (the reference path).
2. ``fleet`` — the identical grid through :func:`run_specs_fleet`'s
   ephemeral shape: a real HTTP coordinator on a loopback port, two
   in-process worker agents, leases/heartbeats/reports over the wire.

Each of the two legs runs ``LEG_REPS`` times in this process and
records its fastest run, so one cold run (first imports, first forks)
does not set ``local_seconds`` or ``dispatch_overhead``.
3. ``roundtrips`` — the control-plane microbench: timed heartbeat
   round-trips (HTTP POST, JSON envelope decode, lease-table sweep,
   response encode) against a live coordinator, isolating per-message
   wire cost from campaign execution.

The structural invariant rides along with the timing: both grids'
merged exports must be byte-identical (``identical``), since the whole
point of the control plane is dispatch that cannot perturb results.
The gate (``check_bench.py``) hard-fails on that bit and only warns on
wall-clock drift.

Runs with the bench suite (``pytest benchmarks/bench_fleet.py``) or
standalone (``python benchmarks/bench_fleet.py``).
"""

import json
import os
import sys
import time

import conftest  # noqa: F401  (adds src/ to sys.path)

from repro.fleet import run_specs_fleet
from repro.fleet.client import CoordinatorClient
from repro.fleet.coordinator import serve
from repro.harness.campaign import CampaignConfig
from repro.harness.executor import execute_specs, results, specs_for_repeated
from repro.harness.export import results_to_json
from repro.targets import target_names

TARGET = "dnsmasq"
MODE = "cmfuzz"
REPS = int(os.environ.get("CMFUZZ_BENCH_FLEET_REPS", "6"))
WORKERS = int(os.environ.get("CMFUZZ_BENCH_FLEET_WORKERS", "2"))
ROUNDTRIPS = int(os.environ.get("CMFUZZ_BENCH_FLEET_ROUNDTRIPS", "400"))
SEED = int(os.environ.get("CMFUZZ_BENCH_FLEET_SEED", "7"))
LEG_REPS = 3
RECORD_PATH = os.environ.get(
    "CMFUZZ_BENCH_FLEET_OUT",
    os.path.join(os.path.dirname(os.path.abspath(__file__)),
                 "BENCH_fleet.json"),
)

_CONFIG = CampaignConfig(n_instances=2, duration_hours=1.0, seed=SEED,
                         sample_interval=300.0)


def _specs():
    return specs_for_repeated(TARGET, MODE, REPS, _CONFIG)


def _local_leg():
    specs = _specs()
    start = time.perf_counter()
    cells = execute_specs(specs, workers=WORKERS)
    elapsed = time.perf_counter() - start
    return elapsed, results_to_json(results(cells))


def _fleet_leg():
    specs = _specs()
    start = time.perf_counter()
    cells = run_specs_fleet(specs, workers=WORKERS)
    elapsed = time.perf_counter() - start
    return elapsed, results_to_json(results(cells))


def _fastest(leg):
    """Run ``leg`` ``LEG_REPS`` times: its fastest wall and every export."""
    walls, exports = [], []
    for _ in range(LEG_REPS):
        elapsed, export = leg()
        walls.append(elapsed)
        exports.append(export)
    return min(walls), exports


def _roundtrip_leg():
    """Heartbeat round-trips/sec against a live loopback coordinator."""
    server = serve()
    server.start()
    try:
        client = CoordinatorClient(server.url)
        client.wait_ready()
        agent_id = client.register("bench").agent_id
        start = time.perf_counter()
        for _ in range(ROUNDTRIPS):
            client.heartbeat(agent_id)
        elapsed = time.perf_counter() - start
    finally:
        server.stop()
    return elapsed


def run_bench():
    """Returns the ``BENCH_fleet.json`` record."""
    local_seconds, local_exports = _fastest(_local_leg)
    fleet_seconds, fleet_exports = _fastest(_fleet_leg)
    roundtrip_seconds = _roundtrip_leg()
    return {
        "bench": "fleet",
        "target": TARGET,
        "mode": MODE,
        "registry_targets": list(target_names()),
        "cells": REPS,
        "workers": WORKERS,
        "seed": SEED,
        "leg_reps": LEG_REPS,
        "local_seconds": round(local_seconds, 4),
        "fleet_seconds": round(fleet_seconds, 4),
        "local_cells_per_s": round(REPS / local_seconds, 2),
        "fleet_cells_per_s": round(REPS / fleet_seconds, 2),
        "dispatch_overhead": round(fleet_seconds / local_seconds, 2),
        "roundtrips": ROUNDTRIPS,
        "roundtrips_per_s": round(ROUNDTRIPS / roundtrip_seconds, 1),
        "roundtrip_ms": round(roundtrip_seconds / ROUNDTRIPS * 1000.0, 3),
        "identical": len(set(local_exports + fleet_exports)) == 1,
    }


def _write_record(record):
    with open(RECORD_PATH, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


def test_fleet_dispatch():
    record = run_bench()
    _write_record(record)
    print("\nfleet: local %.2fs (%.1f cells/s) -> fleet %.2fs (%.1f cells/s, "
          "%.2fx)  heartbeat %.1f rt/s (%.2fms)"
          % (record["local_seconds"], record["local_cells_per_s"],
             record["fleet_seconds"], record["fleet_cells_per_s"],
             record["dispatch_overhead"], record["roundtrips_per_s"],
             record["roundtrip_ms"]))
    assert record["identical"], (
        "fleet export diverged from the local pool export")


def main() -> int:
    record = run_bench()
    _write_record(record)
    print(json.dumps(record, indent=2, sort_keys=True))
    if not record["identical"]:
        print("FAILED: fleet export diverged from the local pool export",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
