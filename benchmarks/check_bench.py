"""CI benchmark regression gate.

Compares a freshly produced bench record against the committed baseline.
Records carry a ``bench`` kind (``modelbuild``, ``engine``, ``ablation``,
``fleet``) and each kind declares its own invariants. Wall-clock numbers on shared CI runners are
noisy, so timing drift outside the tolerance only *warns* (GitHub
``::warning`` annotations); the gate hard-fails only on the structural
invariants, which no amount of runner noise can excuse:

- ``modelbuild`` — the warm cache must execute zero probes, the
  pipeline variants must stay bit-identical, and the in-process leg's
  plan/execute/replay/remainder parts must add up to its wall;
- ``engine`` — every leg's behaviour digest (per engine: the sorted
  final coverage sites, the message, iteration and corpus counts and a
  hash of the RNG state, for a fixed seed and iteration budget) must
  equal the committed baseline's, so a loop change that alters what
  the engine does fails even when it runs faster;
- ``ablation`` — the record must cover every mode it claims the registry
  held (``registry_modes``), the adaptive extensions (``plateau``,
  ``statemap``) must be present, and every mode needs positive coverage,
  a numeric Speedup-vs-peach and a non-empty coverage curve;
- ``fleet`` — the local-pool and fleet exports must be byte-identical
  (the control plane's defining contract) and the heartbeat round-trip
  microbench must report a positive rate.

Every record additionally stamps the target catalogue the bench saw
(``registry_targets``); the gate hard-fails if the bench's subject is
not a registered target, if any seed subject fell out of the registry,
or — when ``repro`` is importable, as it is in CI — if the stamped
catalogue disagrees with the live ``repro.targets.target_names()``.

Usage::

    python benchmarks/check_bench.py FRESH.json BASELINE.json [--tolerance 0.2]
"""

from __future__ import annotations

import argparse
import json
import sys

#: Wall-clock fields compared against the baseline (warn-only), per kind.
TIMING_FIELDS = {
    "modelbuild": (
        "sequential_seconds",
        "parallel_seconds",
        "cold_cache_seconds",
        "warm_cache_seconds",
        "inprocess_seconds",
    ),
    "engine": (
        "single_execs_per_s",
        "e2e_execs_per_s",
        "e2e_sized_execs_per_s",
        "multi_execs_per_s",
    ),
    "ablation": (
        "total_seconds",
    ),
    "fleet": (
        "local_seconds",
        "fleet_seconds",
        "roundtrip_ms",
    ),
}


def load_record(path):
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    if not isinstance(record, dict):
        raise SystemExit("%s: not a bench record" % path)
    return record


def _check_modelbuild(fresh, baseline, failures):
    if fresh.get("warm_probes_executed") != 0:
        failures.append(
            "warm cache executed %r probes (must be 0): the probe cache "
            "no longer short-circuits rebuilds"
            % fresh.get("warm_probes_executed"))
    if fresh.get("identical") is not True:
        failures.append("pipeline variants diverged (identical=%r): the "
                        "parallel/cached paths are no longer bit-identical"
                        % fresh.get("identical"))
    parts = fresh.get("inprocess_parts")
    wall = fresh.get("inprocess_seconds")
    numbers = (isinstance(parts, dict) and isinstance(wall, (int, float))
               and all(isinstance(v, (int, float)) for v in parts.values()))
    if not numbers or abs(sum(parts.values()) - wall) > 1e-3:
        failures.append(
            "in-process model build parts %r do not add up to its wall "
            "%r: the record no longer says where set-up time goes"
            % (parts, wall))


#: The engine legs whose behaviour digest the baseline pins.
_ENGINE_LEGS = ("single", "e2e", "e2e_sized", "multi")
#: Settings the digests depend on; a baseline recorded under others
#: cannot vouch for a fresh record.
_ENGINE_WORKLOAD = ("iterations", "e2e_iterations", "instances", "seed")


def _check_engine(fresh, baseline, failures):
    for name in _ENGINE_WORKLOAD:
        if fresh.get(name) != baseline.get(name):
            failures.append(
                "engine record's %s is %r but the baseline's is %r: the "
                "digests are only comparable on the same workload"
                % (name, fresh.get(name), baseline.get(name)))
            return
    digests = fresh.get("digests") or {}
    pinned = baseline.get("digests") or {}
    for leg in _ENGINE_LEGS:
        if not digests.get(leg) or digests.get(leg) != pinned.get(leg):
            failures.append(
                "engine leg %r digest %r differs from the baseline's %r: "
                "the engine loop no longer does what it did when the "
                "baseline was recorded" % (leg, digests.get(leg),
                                           pinned.get(leg)))


#: The adaptive extensions an ablation record must always cover: losing
#: one from the registry (an import regression, a dropped registration)
#: must fail the gate even though the bench itself would happily run
#: whatever catalogue it sees.
_REQUIRED_ABLATION_MODES = ("plateau", "statemap")


def _check_ablation(fresh, baseline, failures):
    modes = fresh.get("modes")
    if not isinstance(modes, dict) or not modes:
        failures.append("ablation record lacks a modes mapping (got %r)"
                        % (modes,))
        return
    claimed = fresh.get("registry_modes")
    if not isinstance(claimed, list) or sorted(claimed) != sorted(modes):
        failures.append(
            "ablation record's registry_modes %r disagree with its mode "
            "results %r: the bench no longer enumerates the registry"
            % (claimed, sorted(modes)))
    for name in _REQUIRED_ABLATION_MODES:
        if name not in modes:
            failures.append(
                "adaptive mode %r missing from the ablation record: it "
                "fell out of the registry" % name)
    for name, data in sorted(modes.items()):
        if not isinstance(data, dict):
            failures.append("ablation mode %r is not a record: %r"
                            % (name, data))
            continue
        coverage = data.get("final_coverage")
        if not isinstance(coverage, (int, float)) or coverage <= 0:
            failures.append(
                "ablation mode %r reported non-positive coverage %r"
                % (name, coverage))
        if not isinstance(data.get("speedup_vs_peach"), (int, float)):
            failures.append(
                "ablation mode %r lacks a numeric speedup_vs_peach (got "
                "%r)" % (name, data.get("speedup_vs_peach")))
        if not data.get("curve"):
            failures.append("ablation mode %r has an empty coverage curve"
                            % name)


def _check_fleet(fresh, baseline, failures):
    if fresh.get("identical") is not True:
        failures.append(
            "fleet export diverged from the local pool (identical=%r): "
            "distributed dispatch is no longer bit-identical to "
            "workers=N execution" % fresh.get("identical"))
    rate = fresh.get("roundtrips_per_s")
    if not isinstance(rate, (int, float)) or rate <= 0:
        failures.append(
            "fleet record lacks a positive heartbeat round-trip rate "
            "(got %r): the wire microbench no longer runs" % (rate,))


#: The paper's seed subjects: a bench record whose registry snapshot is
#: missing one of these means a target registration silently broke, even
#: though the bench itself only fuzzes its own subject.
_REQUIRED_TARGETS = ("cyclonedds", "dnsmasq", "libcoap", "mosquitto",
                     "openssl", "qpid")


def _live_target_names():
    """The registry's live catalogue, or None when ``repro`` is not
    importable (the gate stays usable as a standalone script)."""
    try:
        from repro.targets import target_names
    except ImportError:
        return None
    return list(target_names())


def _check_targets(fresh, failures, live=None):
    """Kind-agnostic: every record's target list must agree with the
    target registry."""
    registry = fresh.get("registry_targets")
    if not isinstance(registry, list) or not registry:
        failures.append(
            "record lacks a registry_targets snapshot (got %r): the bench "
            "no longer stamps the target catalogue" % (registry,))
        return
    for name in _REQUIRED_TARGETS:
        if name not in registry:
            failures.append(
                "seed subject %r missing from the record's registry "
                "snapshot: it fell out of the target registry" % name)
    subjects = fresh.get("targets") or [fresh.get("target")]
    for name in subjects:
        if name not in registry:
            failures.append(
                "bench subject %r is not a registered target (registry "
                "held %r)" % (name, registry))
    live = _live_target_names() if live is None else live
    if live is not None and sorted(registry) != sorted(live):
        failures.append(
            "record's registry_targets %r disagree with the live "
            "catalogue %r: the bench and target_names() have drifted"
            % (sorted(registry), sorted(live)))


#: bench kind -> hard-invariant checker ``(fresh, baseline, failures)``
#: appending to the failure list.
KIND_CHECKS = {
    "modelbuild": _check_modelbuild,
    "engine": _check_engine,
    "ablation": _check_ablation,
    "fleet": _check_fleet,
}


def check(fresh, baseline, tolerance):
    """Returns (hard_failures, warnings) message lists."""
    failures = []
    warnings = []
    kind = fresh.get("bench", "modelbuild")
    base_kind = baseline.get("bench", "modelbuild")
    if kind != base_kind:
        failures.append("bench kind mismatch: fresh is %r, baseline is %r"
                        % (kind, base_kind))
        return failures, warnings
    checker = KIND_CHECKS.get(kind)
    if checker is None:
        failures.append("unknown bench kind %r" % kind)
        return failures, warnings
    checker(fresh, baseline, failures)
    _check_targets(fresh, failures)
    for name in TIMING_FIELDS.get(kind, ()):
        base = baseline.get(name)
        now = fresh.get(name)
        if not isinstance(base, (int, float)) or not isinstance(now, (int, float)):
            warnings.append("%s: missing in fresh or baseline record" % name)
            continue
        if base <= 0:
            continue
        drift = (now - base) / base
        if abs(drift) > tolerance:
            warnings.append(
                "%s drifted %+.0f%% (baseline %.4f, fresh %.4f, "
                "tolerance ±%.0f%%)"
                % (name, drift * 100.0, base, now, tolerance * 100.0))
    return failures, warnings


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="freshly generated bench record")
    parser.add_argument("baseline", help="committed baseline record")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="relative wall-clock tolerance (default 0.2)")
    args = parser.parse_args(argv)
    failures, warnings = check(load_record(args.fresh),
                               load_record(args.baseline), args.tolerance)
    for message in warnings:
        print("::warning title=bench drift::%s" % message)
    for message in failures:
        print("::error title=bench invariant::%s" % message)
    if failures:
        return 1
    print("bench gate: ok (%d timing warning(s))" % len(warnings))
    return 0


if __name__ == "__main__":
    sys.exit(main())
