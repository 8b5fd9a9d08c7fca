"""The repository benchmark: campaign and grid throughput, layer by layer.

Run from the repository root, one workload per process::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload's passes under outside-in timing wrappers and prints the
per-layer ledger instead. Each process runs one workload, so a peak
resident size read in it belongs to that workload alone.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (each metric a
``{"value", "unit"}`` pair). The line before it, ``perfbench-meta``,
records the machine, interpreter, source revision and export digests.
README.md beside this file explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = {
    "sim_hours_per_s": "h/s",
    "cells_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.extract_s": "s",
    "core.quantify_s": "s",
    "core.quantify_launches": "count",
    "core.allocate_s": "s",
    "fuzzing.iteration_self_s": "s",
    "fuzzing.mutate_s": "s",
    "fuzzing.encode_s": "s",
    "fuzzing.execs": "count",
    "fuzzing.messages": "count",
    "netns.transport_self_s": "s",
    "targets.handle_packet_s": "s",
    "targets.packets": "count",
    "coverage.calls": "count",
    "coverage.record_s": "s",
    "parallel.on_sync_s": "s",
    "parallel.after_iteration_s": "s",
    "parallel.sync_rounds": "count",
    "harness.checkpoint.save_s": "s",
    "harness.checkpoint.saves": "count",
    "harness.checkpoint.bytes": "bytes",
    "telemetry.emit_s": "s",
    "telemetry.trace_bytes": "bytes",
    "harness.campaign.loop_self_s": "s",
    "harness.pool.cell_compute_s": "s",
    "harness.pool.efficiency": "ratio",
    "harness.pool.attempts": "count",
    "harness.pool.retries": "count",
    "harness.pool.outcome_bytes": "bytes",
    "fleet.client_calls": "count",
    "fleet.client_s": "s",
    "fleet.lease_calls": "count",
    "fleet.lease_s": "s",
    "fleet.heartbeat_calls": "count",
    "fleet.heartbeat_s": "s",
    "fleet.report_calls": "count",
    "fleet.report_s": "s",
    "fleet.status_calls": "count",
    "fleet.status_s": "s",
    "fleet.efficiency": "ratio",
    "fleet.roundtrip_ms": "ms",
    "ledger.wall_s": "s",
    "ledger.overhead": "ratio",
}

#: Variables that would switch the program onto another code path or
#: load plugins the benchmark did not generate.
_SCRUBBED_ENV = ("CMFUZZ_FAST_PATH", "CMFUZZ_EXECUTOR_BACKEND",
                 "CMFUZZ_MODE_MODULES", "CMFUZZ_TARGET_MODULES")


def bootstrap() -> None:
    """Put the checkout's ``src/`` first on the path, or fail."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit("perfbench: %s holds no src/repro; run from a "
                         "checkout of the repository" % ROOT)
    for name in _SCRUBBED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)


def source_digest() -> str:
    """sha256 over ``src/repro``'s Python files (the checkout may not be
    a git repository, so this identifies the code measured)."""
    digest = hashlib.sha256()
    base = os.path.join(ROOT, "src", "repro")
    for folder, dirs, files in os.walk(base):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, base).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_head():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: str, scale=None):
    """Run one workload; returns (RunResult, metric units)."""
    import workloads

    scale = scale or workloads.DEFAULT_SCALE
    if trace:
        run = (workloads.trace_campaign(workload, seed, workdir, scale)
               if workload.startswith("campaign")
               else workloads.trace_grid(workload, seed, scale))
        # Layers this workload never reaches did no work.
        run.metrics = {name: run.metrics.get(name, 0)
                       for name in PER_LAYER}
        return run, PER_LAYER
    run = (workloads.run_campaigns(workload, seed, seconds, workdir, scale)
           if workload.startswith("campaign")
           else workloads.run_cells(workload, seed, seconds, scale))
    return run, END_TO_END


def result_line(run, units) -> dict:
    return {
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {name: {"value": run.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "campaign-durable", "grid",
                                 "grid-fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bootstrap()
    scratch = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    # Nothing is cached, but anything that would be lands here.
    os.environ["CMFUZZ_CACHE_DIR"] = os.path.join(workdir, "cache")
    try:
        run, units = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it

    for name, unit in units.items():
        print("%-30s %16.6f %s" % (name, run.metrics[name], unit))
    tally = run.tally
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "walls_s": [round(wall, 4) for wall in run.walls],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_head": git_head(),
        "src_sha256": source_digest(),
        "export_sha256": run.digests,
        "failure_frac": tally.failed / tally.attempted if tally.attempted else 1.0,
        "failures": tally.reasons[:10],
    }
    print("perfbench-meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result_line(run, units)))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
