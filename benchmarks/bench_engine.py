"""Engine hot-loop benchmark: execs/sec plus a behaviour digest per leg.

Measures single-instance execs/sec through :class:`repro.fuzzing.engine.
FuzzEngine` and records the results in ``BENCH_engine.json``:

1. ``single`` — the engine loop driven against a featherweight
   transport (three coverage probes per packet, constant reply), so the
   measurement isolates the loop itself — path walk, message
   generation/mutation/encode, coverage bookkeeping — from any
   particular target's parse cost.
2. ``e2e`` — the same loop against the real in-process dnsmasq target.
3. ``e2e_sized`` — the same end-to-end leg on mosquitto, whose pit
   nests size-of relations (dnsmasq's has none), so it exercises the
   compiled size encoders.
4. ``multi`` — ``CMFUZZ_BENCH_ENGINE_INSTANCES`` featherweight engines
   round-robined in one process, approximating a parallel campaign
   cell's per-process throughput.

Every leg also records a ``digests`` entry: a sha256 of each engine's
final coverage sites, message, iteration and corpus counts and RNG
state, which depend only on the seed and iteration budget.
``check_bench.py`` hard-fails when a fresh digest differs from the
committed one (the loop changed behaviour); execs/sec only warns.
Every timed repetition must reproduce the same digest. Timing
protocol: best of ``CMFUZZ_BENCH_ENGINE_REPEATS`` runs (default 5), GC
disabled inside the timed region, fixed seeds throughout.

Runs with the bench suite (``pytest benchmarks/bench_engine.py``) or
standalone (``python benchmarks/bench_engine.py``).
"""

import gc
import hashlib
import json
import os
import sys
import time

import conftest  # noqa: F401  (adds src/ to sys.path)

from repro.coverage.collector import CoverageCollector
from repro.fuzzing.engine import DirectTransport, FuzzEngine
from repro.targets import get_target, target_names

TARGET = "dnsmasq"
#: The end-to-end subject whose pit carries (nested) size relations.
SIZED_TARGET = "mosquitto"
ITERATIONS = int(os.environ.get("CMFUZZ_BENCH_ENGINE_ITERS", "3000"))
E2E_ITERATIONS = int(os.environ.get("CMFUZZ_BENCH_ENGINE_E2E_ITERS", "1500"))
REPEATS = int(os.environ.get("CMFUZZ_BENCH_ENGINE_REPEATS", "5"))
INSTANCES = int(os.environ.get("CMFUZZ_BENCH_ENGINE_INSTANCES", "4"))
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


def _digest(engines):
    """sha256 of what each engine did: sites, counts and RNG state.

    Per engine: the sorted coverage sites, the message, iteration and
    corpus counts, and the sha256 of ``repr`` of its RNG state. The RNG
    state moves with every random choice the loop makes, so it pins
    the loop's behaviour at least as tightly as per-site hit counts.
    """
    state = [(sorted(engine.collector.total), engine.total_messages,
              engine.iterations, len(engine.corpus),
              hashlib.sha256(repr(engine.rng.getstate()).encode())
              .hexdigest())
             for engine in engines]
    return hashlib.sha256(json.dumps(state).encode()).hexdigest()


def _feather_engine(seed):
    cov = CoverageCollector("feather")
    model = get_target(TARGET).state_model()
    return FuzzEngine(model, FeatherTransport(cov), cov, seed=seed)


def _e2e_engine(seed, name=TARGET):
    entry = get_target(name)
    cov = CoverageCollector(name)
    target = entry.target_cls(collector=cov)
    target.startup()
    model = entry.state_model()
    return FuzzEngine(model, DirectTransport(target), cov, seed=seed)


def _e2e_sized_engine(seed):
    return _e2e_engine(seed, SIZED_TARGET)


def _timed(engines, per_engine):
    """Round-robin ``per_engine`` iterations over ``engines``; seconds."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(per_engine):
            for engine in engines:
                engine.run_iteration()
        return time.perf_counter() - start
    finally:
        gc.enable()


def _leg(build, iterations, instances=1):
    """Best-of-``REPEATS`` execs/sec and the leg's behaviour digest."""
    per_engine = max(1, iterations // instances)
    best = None
    digests = set()
    for _ in range(REPEATS):
        engines = [build(SEED + index) for index in range(instances)]
        elapsed = _timed(engines, per_engine)
        best = elapsed if best is None else min(best, elapsed)
        digests.add(_digest(engines))
    if len(digests) != 1:
        raise AssertionError("repetitions of one leg diverged: %r"
                             % sorted(digests))
    return per_engine * instances / best, digests.pop()


def run_bench():
    """Returns the ``BENCH_engine.json`` record."""
    legs = {
        "single": _leg(_feather_engine, ITERATIONS),
        "e2e": _leg(_e2e_engine, E2E_ITERATIONS),
        "e2e_sized": _leg(_e2e_sized_engine, E2E_ITERATIONS),
        "multi": _leg(_feather_engine, ITERATIONS, INSTANCES),
    }
    record = {
        "bench": "engine",
        "target": TARGET,
        "targets": [TARGET, SIZED_TARGET],
        "registry_targets": list(target_names()),
        "iterations": ITERATIONS,
        "e2e_iterations": E2E_ITERATIONS,
        "repeats": REPEATS,
        "instances": INSTANCES,
        "seed": SEED,
        "digests": {name: digest for name, (_, digest) in legs.items()},
    }
    for name, (rate, _) in legs.items():
        record["%s_execs_per_s" % name] = round(rate, 1)
    return record


def _write_record(record):
    with open(RECORD_PATH, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


def test_engine_bench():
    record = run_bench()
    _write_record(record)
    print("\nengine: single %0.0f execs/s  e2e %0.0f  e2e[%s] %0.0f  "
          "multi[%d] %0.0f"
          % (record["single_execs_per_s"], record["e2e_execs_per_s"],
             SIZED_TARGET, record["e2e_sized_execs_per_s"],
             record["instances"], record["multi_execs_per_s"]))


def main() -> int:
    record = run_bench()
    _write_record(record)
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
