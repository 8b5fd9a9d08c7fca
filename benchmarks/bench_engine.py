"""Engine hot-loop benchmark: slow (pre-fast-path) vs fast engine.

Measures single-instance execs/sec through :class:`repro.fuzzing.engine.
FuzzEngine` with both sides of the :mod:`repro.fastpath` switch and
records the results in ``BENCH_engine.json``:

1. ``engine_single`` — the gated metric: the engine loop driven against
   a featherweight transport (three coverage probes per packet, constant
   reply), so the measurement isolates the subsystems this optimisation
   touches — path walk, message generation/mutation/encode, coverage
   bookkeeping — from any particular target's parse cost. The fast path
   must clear ``CMFUZZ_BENCH_ENGINE_MIN_SPEEDUP`` (default 3.0×).
2. ``engine_e2e`` — the honest end-to-end figure: the same loop against
   the real in-process dnsmasq target (its packet parsing is untouched
   by the fast path and dilutes the ratio); reported, never gated.
3. ``engine_e2e_sized`` — the same end-to-end leg on mosquitto, whose
   pit nests size-of relations (dnsmasq's has none), so it exercises
   the compiled size encoders; reported, never gated.
4. ``engine_multi`` — ``CMFUZZ_BENCH_ENGINE_INSTANCES`` featherweight
   engines round-robined in one process, approximating a parallel
   campaign cell's per-process throughput.

Every leg runs both switch positions from the same seed and asserts the
final coverage map and message count are identical — the benchmark
refuses to report a speedup that changed behaviour. Timing protocol:
best of ``CMFUZZ_BENCH_ENGINE_REPEATS`` runs (default 5), GC disabled
inside the timed region, fixed seeds throughout.

Runs with the bench suite (``pytest benchmarks/bench_engine.py``) or
standalone (``python benchmarks/bench_engine.py``).
"""

import gc
import json
import os
import sys
import time

import conftest  # noqa: F401  (adds src/ to sys.path)

from repro import fastpath
from repro.coverage.collector import make_collector
from repro.fuzzing.engine import DirectTransport, FuzzEngine
from repro.targets import get_target, target_names

TARGET = "dnsmasq"
#: The end-to-end subject whose pit carries (nested) size relations.
SIZED_TARGET = "mosquitto"
ITERATIONS = int(os.environ.get("CMFUZZ_BENCH_ENGINE_ITERS", "3000"))
E2E_ITERATIONS = int(os.environ.get("CMFUZZ_BENCH_ENGINE_E2E_ITERS", "1500"))
REPEATS = int(os.environ.get("CMFUZZ_BENCH_ENGINE_REPEATS", "5"))
INSTANCES = int(os.environ.get("CMFUZZ_BENCH_ENGINE_INSTANCES", "4"))
MIN_SPEEDUP = float(os.environ.get("CMFUZZ_BENCH_ENGINE_MIN_SPEEDUP", "3.0"))
SEED = int(os.environ.get("CMFUZZ_BENCH_ENGINE_SEED", "1"))
RECORD_PATH = os.environ.get(
    "CMFUZZ_BENCH_ENGINE_OUT",
    os.path.join(os.path.dirname(os.path.abspath(__file__)),
                 "BENCH_engine.json"),
)


class FeatherTransport:
    """A near-zero-cost transport: three coverage probes, constant reply.

    Stands in for an instrumented target whose parse cost is nil, so the
    engine loop itself dominates the measurement.
    """

    def __init__(self, cov):
        self.cov = cov

    def send(self, payload):
        self.cov.branch("feather.len", len(payload) % 2 == 0)
        self.cov.hit("feather.byte%d" % (payload[0] if payload else 0))
        return b"ok"

    def reset(self):
        pass


def _snapshot(cov):
    """Coverage totals as a plain dict, for cross-flavor comparison."""
    total = cov.total
    if hasattr(total, "as_dict"):
        return dict(total.as_dict())
    return dict(total._hits)


def _feather_engine(seed):
    cov = make_collector("feather")
    model = get_target(TARGET).state_model()
    return FuzzEngine(model, FeatherTransport(cov), cov, seed=seed), cov


def _e2e_engine(seed, name=TARGET):
    entry = get_target(name)
    cov = make_collector(name)
    target = entry.target_cls(collector=cov)
    target.startup()
    model = entry.state_model()
    return FuzzEngine(model, DirectTransport(target), cov, seed=seed), cov


def _e2e_sized_engine(seed):
    return _e2e_engine(seed, SIZED_TARGET)


def _timed(build, iterations):
    """One timed run: returns (elapsed, coverage snapshot, messages)."""
    engine, cov = build(SEED)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(iterations):
            engine.run_iteration()
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return elapsed, _snapshot(cov), engine.total_messages


def _leg(fast, build, iterations, repeats=None):
    """Best-of-``repeats`` execs/sec for one switch position."""
    best = None
    reference = None
    with fastpath.forced(fast):
        for _ in range(repeats or REPEATS):
            elapsed, snapshot, messages = _timed(build, iterations)
            best = elapsed if best is None else min(best, elapsed)
            reference = (snapshot, messages)
    return iterations / best, reference


def _multi_leg(fast):
    """Round-robin INSTANCES featherweight engines in one process."""
    with fastpath.forced(fast):
        engines = [_feather_engine(SEED + index)[0]
                   for index in range(INSTANCES)]
        per_engine = max(1, ITERATIONS // INSTANCES)
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(per_engine):
                for engine in engines:
                    engine.run_iteration()
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
    return per_engine * INSTANCES / elapsed


def run_bench():
    """Returns the ``BENCH_engine.json`` record."""
    single_slow, single_slow_ref = _leg(False, _feather_engine, ITERATIONS)
    single_fast, single_fast_ref = _leg(True, _feather_engine, ITERATIONS)
    e2e_slow, e2e_slow_ref = _leg(False, _e2e_engine, E2E_ITERATIONS)
    e2e_fast, e2e_fast_ref = _leg(True, _e2e_engine, E2E_ITERATIONS)
    sized_slow, sized_slow_ref = _leg(False, _e2e_sized_engine, E2E_ITERATIONS)
    sized_fast, sized_fast_ref = _leg(True, _e2e_sized_engine, E2E_ITERATIONS)
    multi_slow = _multi_leg(False)
    multi_fast = _multi_leg(True)
    identical = (single_slow_ref == single_fast_ref
                 and e2e_slow_ref == e2e_fast_ref
                 and sized_slow_ref == sized_fast_ref)
    return {
        "bench": "engine",
        "target": TARGET,
        "targets": [TARGET, SIZED_TARGET],
        "registry_targets": list(target_names()),
        "iterations": ITERATIONS,
        "e2e_iterations": E2E_ITERATIONS,
        "repeats": REPEATS,
        "instances": INSTANCES,
        "seed": SEED,
        "min_speedup": MIN_SPEEDUP,
        "single_slow_execs_per_s": round(single_slow, 1),
        "single_fast_execs_per_s": round(single_fast, 1),
        "speedup_single": round(single_fast / single_slow, 2),
        "e2e_slow_execs_per_s": round(e2e_slow, 1),
        "e2e_fast_execs_per_s": round(e2e_fast, 1),
        "speedup_e2e": round(e2e_fast / e2e_slow, 2),
        "e2e_sized_slow_execs_per_s": round(sized_slow, 1),
        "e2e_sized_fast_execs_per_s": round(sized_fast, 1),
        "speedup_e2e_sized": round(sized_fast / sized_slow, 2),
        "multi_slow_execs_per_s": round(multi_slow, 1),
        "multi_fast_execs_per_s": round(multi_fast, 1),
        "speedup_multi": round(multi_fast / multi_slow, 2),
        "identical": identical,
    }


def _write_record(record):
    with open(RECORD_PATH, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


def test_engine_fast_path():
    record = run_bench()
    _write_record(record)
    print("\nengine: single %0.0f -> %0.0f execs/s (%.2fx)  "
          "e2e %0.0f -> %0.0f (%.2fx)  e2e[%s] %0.0f -> %0.0f (%.2fx)  "
          "multi[%d] %0.0f -> %0.0f (%.2fx)"
          % (record["single_slow_execs_per_s"],
             record["single_fast_execs_per_s"], record["speedup_single"],
             record["e2e_slow_execs_per_s"], record["e2e_fast_execs_per_s"],
             record["speedup_e2e"], SIZED_TARGET,
             record["e2e_sized_slow_execs_per_s"],
             record["e2e_sized_fast_execs_per_s"],
             record["speedup_e2e_sized"], record["instances"],
             record["multi_slow_execs_per_s"],
             record["multi_fast_execs_per_s"], record["speedup_multi"]))
    assert record["identical"], (
        "fast and slow engines diverged (coverage or message counts)")
    assert record["speedup_single"] >= MIN_SPEEDUP, (
        "engine fast path %.2fx below the %.1fx floor"
        % (record["speedup_single"], MIN_SPEEDUP))


def main() -> int:
    record = run_bench()
    _write_record(record)
    print(json.dumps(record, indent=2, sort_keys=True))
    ok = record["identical"] and record["speedup_single"] >= MIN_SPEEDUP
    if not ok:
        print("FAILED: identical=%s speedup_single=%sx (floor %.1fx)"
              % (record["identical"], record["speedup_single"], MIN_SPEEDUP),
              file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
