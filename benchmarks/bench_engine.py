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

The record also carries the import footprint of a campaign run, taken
in a fresh interpreter: ``import_rss_mb``, the growth of resident
memory (Linux ``/proc/self/statm``) while importing ``repro``,
``repro.api``, ``repro.harness.campaign`` and ``repro.harness.executor``
(smallest of three runs), and ``third_party_modules``, the top-level
packages outside the standard library and ``repro`` those imports
loaded. ``check_bench.py`` hard-fails a non-empty list; RSS drift only
warns.

Runs with the bench suite (``pytest benchmarks/bench_engine.py``) or
standalone (``python benchmarks/bench_engine.py``).
"""

import gc
import hashlib
import json
import os
import subprocess
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


#: What a campaign run imports; the footprint measures exactly these.
FOOTPRINT_MODULES = ("repro", "repro.api", "repro.harness.campaign",
                     "repro.harness.executor")

#: Runs in a fresh interpreter and prints the RSS growth (bytes) of the
#: imports and the non-stdlib packages they loaded. Current RSS, not
#: ``ru_maxrss``: a child's peak starts at its parent's. Startup ``.pth``
#: hooks and aliases of ``__main__`` are not imports; without
#: ``sys.stdlib_module_names`` (Python 3.9) only the formerly required
#: packages are looked for.
_FOOTPRINT_SCRIPT = """
import importlib, json, os, sys
def rss():
    with open('/proc/self/statm') as handle:
        return int(handle.read().split()[1]) * os.sysconf('SC_PAGE_SIZE')
before = set(sys.modules)
start = rss()
for name in %r:
    importlib.import_module(name)
grown = rss() - start
added = {m.split('.')[0] for m in set(sys.modules) - before
         if sys.modules[m] is not sys.modules['__main__']} - {'repro'}
stdlib = getattr(sys, 'stdlib_module_names', None)
foreign = sorted(n for n in added
                 if (n not in stdlib if stdlib else n in ('networkx', 'numpy')))
print(json.dumps([grown, foreign]))
""" % (FOOTPRINT_MODULES,)


def import_footprint(runs=3):
    """``(import_rss_mb, third_party_modules)`` of a campaign's imports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = conftest._SRC + os.pathsep + env.get("PYTHONPATH", "")
    grown = []
    foreign = set()
    for _ in range(runs):
        output = subprocess.run([sys.executable, "-c", _FOOTPRINT_SCRIPT],
                                capture_output=True, text=True, check=True,
                                env=env).stdout
        size, modules = json.loads(output)
        grown.append(size)
        foreign.update(modules)
    return round(min(grown) / 2.0 ** 20, 1), sorted(foreign)


def run_bench():
    """Returns the ``BENCH_engine.json`` record."""
    legs = {
        "single": _leg(_feather_engine, ITERATIONS),
        "e2e": _leg(_e2e_engine, E2E_ITERATIONS),
        "e2e_sized": _leg(_e2e_sized_engine, E2E_ITERATIONS),
        "multi": _leg(_feather_engine, ITERATIONS, INSTANCES),
    }
    import_rss_mb, third_party = import_footprint()
    record = {
        "bench": "engine",
        "import_rss_mb": import_rss_mb,
        "third_party_modules": third_party,
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
          "multi[%d] %0.0f  import %0.1f MB"
          % (record["single_execs_per_s"], record["e2e_execs_per_s"],
             SIZED_TARGET, record["e2e_sized_execs_per_s"],
             record["instances"], record["multi_execs_per_s"],
             record["import_rss_mb"]))


def main() -> int:
    record = run_bench()
    _write_record(record)
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
