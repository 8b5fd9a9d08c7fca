"""Command-line interface: run campaigns and inspect configuration models.

Usage::

    python -m repro campaign --target mosquitto --mode cmfuzz --hours 24
    python -m repro model --target dnsmasq
    python -m repro compare --target libcoap --hours 12
    python -m repro targets
    python -m repro modes
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro.api import (
    ModelBuildConfig,
    allocate_groups,
    compare_modes,
    extract_model,
    quantify_relations,
    run_campaign,
)
from repro.errors import CampaignInterrupted
from repro.harness.campaign import CampaignConfig
from repro.harness.experiments import chaos_config
from repro.harness.export import results_to_json
from repro.harness.report import (
    format_speedup,
    improvement,
    render_bug_table,
    render_figure4,
    render_metrics_summary,
    render_supervisor_summary,
    render_table,
)
from repro.harness.stats import speedup
from repro.parallel import mode_names, render_mode_table
from repro.targets import render_target_table, target_names
from repro.telemetry import TelemetryConfig


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--instances", type=int, default=4)
    parser.add_argument("--hours", type=float, default=24.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1,
                        help="campaign cells run in parallel (default: 1, in-process)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the on-disk result cache under .cmfuzz-cache/")
    parser.add_argument("--probe-workers", type=int, default=1,
                        help="worker processes for the model-build probe "
                             "fan-out (default: 1, serial)")
    parser.add_argument("--probe-cache", action="store_true",
                        help="memoise startup-probe outcomes under "
                             ".cmfuzz-cache/probes/")
    parser.add_argument("--chaos-level", type=float, default=0.0,
                        metavar="LEVEL",
                        help="inject deterministic target faults at this "
                             "intensity in [0, 1] (default: 0, disabled)")
    parser.add_argument("--chaos-seed", type=int, default=0,
                        help="seed for the chaos fault schedule (default: 0)")
    parser.add_argument("--io-chaos-level", type=float, default=0.0,
                        metavar="LEVEL",
                        help="inject deterministic infrastructure I/O "
                             "faults (cache, checkpoint, pool, telemetry "
                             "sink) at this intensity in [0, 1]; exports "
                             "stay byte-identical to the fault-free run "
                             "(default: 0, disabled)")
    parser.add_argument("--io-chaos-seed", type=int, default=0,
                        help="seed for the I/O fault schedule (default: 0)")
    parser.add_argument("--strict-io", action="store_true",
                        help="fail fast on exhausted I/O retries instead "
                             "of degrading gracefully")
    parser.add_argument("--metrics", action="store_true",
                        help="enable campaign telemetry and print the "
                             "metrics summary")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="enable telemetry and append JSONL trace "
                             "records (spans + events) to PATH")
    parser.add_argument("--backend", choices=("local", "fleet"),
                        default=None,
                        help="campaign-cell dispatch: 'local' process "
                             "pool (default) or the 'fleet' control "
                             "plane; exports are byte-identical either "
                             "way (default: $CMFUZZ_EXECUTOR_BACKEND or "
                             "local)")
    parser.add_argument("--coordinator", metavar="URL", default=None,
                        help="fleet backend only: a running coordinator "
                             "URL (omitted, an ephemeral in-process "
                             "fleet runs the cells)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CMFuzz reproduction: configuration-model-driven parallel fuzzing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    targets = target_names()

    campaign = sub.add_parser("campaign", help="run one fuzzing campaign")
    campaign.add_argument("--target", choices=targets, required=True)
    campaign.add_argument("--mode", choices=mode_names(), default="cmfuzz")
    _add_run_options(campaign)
    campaign.add_argument("--checkpoint-every", type=float, default=None,
                          metavar="SIM_SECONDS",
                          help="checkpoint the full campaign state every "
                               "SIM_SECONDS simulated seconds under "
                               ".cmfuzz-cache/checkpoints/; SIGTERM/SIGINT "
                               "save a final checkpoint and exit with "
                               "code 75")
    campaign.add_argument("--resume", action="store_true",
                          help="continue from the newest intact checkpoint "
                               "of this campaign (starts fresh when none "
                               "exists); the finished run is byte-identical "
                               "to an uninterrupted one")
    campaign.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                          help="checkpoint root override (default "
                               "$CMFUZZ_CACHE_DIR/checkpoints)")
    campaign.add_argument("--export", metavar="PATH", default=None,
                          help="write the campaign's export JSON "
                               "(schema-versioned) to PATH")

    compare = sub.add_parser("compare", help="run all three fuzzers and compare")
    compare.add_argument("--target", choices=targets, required=True)
    _add_run_options(compare)

    model = sub.add_parser("model", help="print a target's configuration model")
    model.add_argument("--target", choices=targets, required=True)
    model.add_argument("--instances", type=int, default=4)
    model.add_argument("--relations", action="store_true",
                       help="also quantify relations and show the allocation")
    model.add_argument("--workers", type=int, default=1,
                       help="worker processes for relation probing "
                            "(default: 1, serial)")
    model.add_argument("--no-cache", action="store_true",
                       help="skip the on-disk probe cache under "
                            ".cmfuzz-cache/probes/")

    sub.add_parser("targets", help="list registered protocol targets "
                                   "(README's target table regenerates "
                                   "from this output)")
    sub.add_parser("modes", help="list registered parallel modes "
                                 "(README's mode table regenerates from "
                                 "this output)")

    fleet = sub.add_parser("fleet", help="distributed campaign control "
                                         "plane (coordinator, agents, "
                                         "campaign submission)")
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    coordinator = fleet_sub.add_parser(
        "coordinator", help="serve the campaign coordinator HTTP API")
    coordinator.add_argument("--host", default="127.0.0.1")
    coordinator.add_argument("--port", type=int, default=8765,
                             help="listen port (0 picks an ephemeral "
                                  "port; the bound URL is printed)")
    coordinator.add_argument("--lease-ttl", type=float, default=15.0,
                             help="seconds of heartbeat silence before "
                                  "an agent's leases are reassigned "
                                  "(default: 15)")
    coordinator.add_argument("--heartbeat-interval", type=float, default=5.0,
                             help="cadence agents must heartbeat at "
                                  "(default: 5)")

    agent = fleet_sub.add_parser(
        "agent", help="run one worker agent against a coordinator")
    agent.add_argument("--coordinator", metavar="URL", required=True)
    agent.add_argument("--name", default=None,
                       help="agent name (default: agent-<host>-<pid>; "
                            "the coordinator uniquifies collisions)")
    agent.add_argument("--no-cache", action="store_true",
                       help="skip the shared result cache (re-leased "
                            "cells then recompute instead of resuming)")
    agent.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="result/checkpoint cache root shared with "
                            "the other agents (default: "
                            "$CMFUZZ_CACHE_DIR or .cmfuzz-cache/)")
    agent.add_argument("--poll", type=float, default=0.5,
                       help="idle lease-poll interval in seconds "
                            "(default: 0.5)")
    agent.add_argument("--stop-when-idle", action="store_true",
                       help="exit once the coordinator has no work "
                            "instead of polling forever")

    submit = fleet_sub.add_parser(
        "submit", help="submit a campaign grid and wait for its export")
    submit.add_argument("--coordinator", metavar="URL", default=None,
                        help="coordinator URL (required unless "
                             "--backend local)")
    submit.add_argument("--backend", choices=("local", "fleet"),
                        default="fleet",
                        help="'fleet' submits to the coordinator; "
                             "'local' runs the identical grid on the "
                             "in-process pool — the two exports are "
                             "byte-identical (default: fleet)")
    submit.add_argument("--target", required=True)
    submit.add_argument("--mode", default="cmfuzz")
    submit.add_argument("--repetitions", type=int, default=1)
    submit.add_argument("--instances", type=int, default=4)
    submit.add_argument("--hours", type=float, default=24.0)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--workers", type=int, default=2,
                        help="local backend only: pool width (default: 2)")
    submit.add_argument("--checkpoint-every", type=float, default=None,
                        metavar="SIM_SECONDS",
                        help="checkpoint each cell so a re-leased cell "
                             "resumes instead of restarting")
    submit.add_argument("--no-cache", action="store_true",
                        help="local backend: skip the result cache")
    submit.add_argument("--io-chaos-level", type=float, default=0.0,
                        metavar="LEVEL",
                        help="infrastructure fault-plane level inside "
                             "each cell (0 disables; exports stay "
                             "byte-identical at any level)")
    submit.add_argument("--io-chaos-seed", type=int, default=0)
    submit.add_argument("--retries", type=int, default=1)
    submit.add_argument("--timeout", type=float, default=None,
                        help="give up waiting after this many seconds")
    submit.add_argument("--label", default="",
                        help="session label shown in listings")
    submit.add_argument("--export", metavar="PATH", default=None,
                        help="write the merged campaign export JSON "
                             "(spec order, schema-versioned) to PATH")

    status = fleet_sub.add_parser(
        "status", help="show sessions, per-cell states and the agent "
                       "roster")
    status.add_argument("--coordinator", metavar="URL", required=True)
    status.add_argument("--session", default=None,
                        help="one session's per-cell detail instead of "
                             "the overview")
    status.add_argument("--follow", action="store_true",
                        help="stream cell transitions until the "
                             "session settles (needs --session)")
    return parser


def _cmd_targets(out) -> int:
    out.write(render_target_table() + "\n")
    return 0


def _cmd_model(args, out) -> int:
    model = extract_model(args.target)
    rows = [
        [e.name, e.type.value, e.flag.value, ", ".join(map(str, e.values[:4]))]
        for e in model.entities()
    ]
    out.write(render_table(["Name", "Type", "Flag", "Values"], rows) + "\n")
    if not args.relations:
        return 0
    faults: List = []
    relation_model, report = quantify_relations(
        args.target, model,
        ModelBuildConfig(max_combinations=8, workers=args.workers,
                         cache=not args.no_cache),
        on_fault=faults.append,
    )
    out.write("\n%d relations from %d launches (%d conflicts)\n"
              % (relation_model.number_of_edges(), report.launches,
                 report.failures))
    for fault in sorted({str(f) for f in faults}):
        out.write("startup crash while probing: %s\n" % fault)
    allocation = allocate_groups(relation_model, args.instances)
    for index, group in enumerate(allocation.groups):
        out.write("instance %d: %s\n" % (index, ", ".join(sorted(group))))
    return 0


def _telemetry_config(args) -> Optional[TelemetryConfig]:
    if not (args.metrics or args.trace_out):
        return None
    return TelemetryConfig(enabled=True, trace_path=args.trace_out)


def _campaign_config(args) -> CampaignConfig:
    config = CampaignConfig(n_instances=args.instances,
                            duration_hours=args.hours, seed=args.seed,
                            telemetry=_telemetry_config(args),
                            probe_workers=args.probe_workers,
                            probe_cache=args.probe_cache,
                            io_chaos_level=args.io_chaos_level,
                            io_chaos_seed=args.io_chaos_seed,
                            strict_io=args.strict_io)
    return chaos_config(config, args.chaos_level, chaos_seed=args.chaos_seed)


def _execute(args, mode_names):
    comparison = compare_modes(
        args.target, modes=mode_names, repetitions=1,
        config=_campaign_config(args), workers=args.workers,
        cache=not args.no_cache, backend=args.backend,
        coordinator=args.coordinator,
    )
    return {name: comparison.results[name][0] for name in mode_names}


#: Exit code of an interrupted-but-checkpointed campaign (EX_TEMPFAIL:
#: rerun with --resume to continue).
EXIT_INTERRUPTED = 75


def _cmd_campaign(args, out) -> int:
    config = _campaign_config(args)
    checkpointing = args.checkpoint_every is not None or args.resume
    if checkpointing:
        config = dataclasses.replace(
            config, checkpoint_every=args.checkpoint_every,
            resume=args.resume, checkpoint_dir=args.checkpoint_dir,
        )
    if args.backend == "fleet":
        # The fleet path always goes through the spec executor: the
        # cell is a pure function of its spec, and agents handle
        # caching/resume themselves.
        from repro.harness.executor import (
            CampaignSpec,
            execute_specs,
            results,
        )

        cells = execute_specs(
            [CampaignSpec(target=args.target, mode=args.mode, config=config)],
            backend="fleet", coordinator=args.coordinator,
            cache=not args.no_cache and not checkpointing,
        )
        result = results(cells)[0]
        return _report_campaign(args, result, out)
    try:
        # Checkpointing runs take the live path: the result cache would
        # serve a stale hit instead of resuming, and the pool's retry
        # must not swallow the interrupt.
        result = run_campaign(args.target, mode=args.mode, config=config,
                              cache=not args.no_cache and not checkpointing)
    except CampaignInterrupted as stop:
        out.write("interrupted at sim %.0fs after %d iterations; "
                  "checkpoint saved — rerun with --resume to continue\n"
                  % (stop.sim_time, stop.iterations))
        return EXIT_INTERRUPTED
    return _report_campaign(args, result, out)


def _report_campaign(args, result, out) -> int:
    if args.export:
        with open(args.export, "w", encoding="utf-8") as handle:
            handle.write(results_to_json([result]) + "\n")
    out.write("target=%s mode=%s branches=%d bugs=%d iterations=%d\n"
              % (result.target, result.mode, result.final_coverage,
                 len(result.bugs), result.iterations))
    if len(result.bugs):
        out.write(render_bug_table(result.bugs) + "\n")
    if result.supervisor_events:
        out.write(render_supervisor_summary(result.supervisor_events) + "\n")
    if args.metrics:
        out.write(render_metrics_summary(result.metrics) + "\n")
    return 0


def _cmd_compare(args, out) -> int:
    by_mode = _execute(args, ("peach", "spfuzz", "cmfuzz"))
    cmfuzz = by_mode["cmfuzz"]
    rows = []
    for name, result in by_mode.items():
        rows.append([name, str(result.final_coverage), str(len(result.bugs))])
    out.write(render_table(["Fuzzer", "Branches", "Bugs"], rows) + "\n")
    for baseline in ("peach", "spfuzz"):
        out.write("cmfuzz vs %s: %s coverage, speedup %s\n" % (
            baseline,
            improvement(cmfuzz.final_coverage, by_mode[baseline].final_coverage),
            format_speedup(speedup(by_mode[baseline].coverage, cmfuzz.coverage)),
        ))
    out.write(render_figure4(
        {name: result.coverage for name, result in by_mode.items()},
        horizon=args.hours * 3600.0,
    ) + "\n")
    if args.metrics:
        for name, result in by_mode.items():
            out.write("\n[%s metrics]\n%s\n"
                      % (name, render_metrics_summary(result.metrics)))
    return 0


def _cmd_fleet_coordinator(args, out) -> int:
    from repro.fleet import FleetConfig, serve

    config = FleetConfig(
        lease_ttl=args.lease_ttl,
        heartbeat_interval=args.heartbeat_interval,
    )
    server = serve(host=args.host, port=args.port, config=config).start()
    out.write("fleet coordinator serving on %s (lease ttl %.1fs, "
              "heartbeat %.1fs)\n"
              % (server.url, config.lease_ttl, config.heartbeat_interval))
    if hasattr(out, "flush"):
        out.flush()
    try:
        server.thread.join()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _cmd_fleet_agent(args, out) -> int:
    from repro.fleet import CoordinatorClient, FleetAgent

    client = CoordinatorClient(args.coordinator)
    client.wait_ready(timeout=30.0)
    agent = FleetAgent(
        client, name=args.name, cache=not args.no_cache,
        cache_dir=args.cache_dir, poll=args.poll,
        stop_when_idle=args.stop_when_idle,
    )
    out.write("agent %s joining %s\n" % (agent.name, client.base_url))
    if hasattr(out, "flush"):
        out.flush()
    try:
        done = agent.run()
    except KeyboardInterrupt:
        agent.stop()
        done = agent.cells_done
    out.write("agent %s leaving after %d cell(s)\n"
              % (agent.agent_id or agent.name, done))
    return 0


def _cmd_fleet_submit(args, out) -> int:
    from repro.harness.executor import execute_specs, results, specs_for_repeated

    config = CampaignConfig(n_instances=args.instances,
                            duration_hours=args.hours, seed=args.seed,
                            checkpoint_every=args.checkpoint_every,
                            io_chaos_level=args.io_chaos_level,
                            io_chaos_seed=args.io_chaos_seed)
    specs = specs_for_repeated(args.target, args.mode, args.repetitions,
                               config)
    if args.backend == "local":
        cells = execute_specs(specs, workers=args.workers,
                              cache=not args.no_cache, retries=args.retries)
    else:
        if not args.coordinator:
            out.write("fleet submit: --coordinator is required for the "
                      "fleet backend (or pass --backend local)\n")
            return 2
        from repro.fleet import run_specs_fleet

        cells = run_specs_fleet(specs, coordinator=args.coordinator,
                                retries=args.retries, label=args.label,
                                wait_timeout=args.timeout)
    campaigns = results(cells)
    if args.export:
        with open(args.export, "w", encoding="utf-8") as handle:
            handle.write(results_to_json(campaigns) + "\n")
    for cell, result in zip(cells, campaigns):
        out.write("cell %d: target=%s mode=%s branches=%d bugs=%d "
                  "iterations=%d%s\n"
                  % (cell.index, result.target, result.mode,
                     result.final_coverage, len(result.bugs),
                     result.iterations,
                     " (cache)" if cell.from_cache else ""))
    return 0


def _cmd_fleet_status(args, out) -> int:
    import time as _time

    from repro.fleet import CoordinatorClient

    client = CoordinatorClient(args.coordinator)
    if args.session and args.follow:
        cursor = -1
        while True:
            tail = client.events(args.session, after=cursor)
            for event in tail.events:
                out.write("t=%.1f cell %d -> %s%s (epoch %d)\n"
                          % (event.time, event.cell_index, event.state,
                             (" @" + event.agent) if event.agent else "",
                             event.epoch))
                cursor = event.seq
            if tail.state != "running":
                out.write("session %s: %s\n" % (args.session, tail.state))
                return 0 if tail.state == "done" else 1
            _time.sleep(0.5)
    if args.session:
        status = client.status(args.session)
        out.write("session %s [%s] %s\n"
                  % (status.session_id, status.label, status.state))
        for cell in status.cells:
            out.write("  cell %d: %s%s epoch=%d attempts=%d%s\n"
                      % (cell.index, cell.state,
                         (" @" + cell.agent) if cell.agent else "",
                         cell.epoch, cell.attempts,
                         " (cache)" if cell.from_cache else ""))
        return 0
    sessions = client.sessions()
    for status in sessions.sessions:
        settled = sum(1 for c in status.cells if c.state in ("done", "failed"))
        out.write("session %s [%s] %s (%d/%d cells)\n"
                  % (status.session_id, status.label, status.state,
                     settled, len(status.cells)))
    roster = client.roster()
    for agent in roster.agents:
        out.write("agent %s: %s leased=%d completed=%d\n"
                  % (agent.agent_id, agent.state, agent.leased,
                     agent.completed))
    if not sessions.sessions and not roster.agents:
        out.write("fleet is empty (no sessions, no agents)\n")
    return 0


def _cmd_fleet(args, out) -> int:
    handlers = {
        "coordinator": _cmd_fleet_coordinator,
        "agent": _cmd_fleet_agent,
        "submit": _cmd_fleet_submit,
        "status": _cmd_fleet_status,
    }
    return handlers[args.fleet_command](args, out)


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    if args.command == "targets":
        return _cmd_targets(out)
    if args.command == "modes":
        out.write(render_mode_table() + "\n")
        return 0
    if args.command == "model":
        return _cmd_model(args, out)
    if args.command == "campaign":
        return _cmd_campaign(args, out)
    if args.command == "compare":
        return _cmd_compare(args, out)
    if args.command == "fleet":
        return _cmd_fleet(args, out)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
