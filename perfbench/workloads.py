"""The benchmark's workloads: generation from a seed, timed runs, checks.

Four workloads (README.md says why each exists):

``campaign``
    Serial in-process ``cmfuzz`` campaigns on ``mosquitto``, 4
    instances, telemetry off, no checkpoints.
``campaign-durable``
    Serial in-process campaigns of the same shape with live telemetry,
    a JSONL trace sink and a checkpoint every sync interval (600
    simulated seconds).
``grid``
    A Table-I-style ``{dnsmasq, mosquitto, libcoap, modbus} x {cmfuzz,
    peach, spfuzz}`` grid of short cells through ``execute_specs`` on
    the local pool with two workers.
``grid-fleet``
    The identical grid through ``backend="fleet"``: an ephemeral
    loopback coordinator, two agent threads, real HTTP.

Everything the program receives is generated here from the seed:
campaign configs and grid specs. The program is driven only through
its public functions, with the result and probe caches off.

Every campaign and cell is an attempted operation; a raised campaign, a
failed cell or an export that fails its check is a failed one.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import pickle
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ledger import (
    Ledger,
    Patches,
    campaign_metrics,
    coverage_metrics,
    durable_metrics,
    fleet_metrics,
    install_campaign_layers,
    install_coverage_layer,
    install_durable_layers,
    install_fleet_client_layer,
    wrap_allocator,
)

WORKLOADS = ("campaign", "campaign-durable", "grid", "grid-fleet")

CAMPAIGN_TARGET = "mosquitto"
CAMPAIGN_MODE = "cmfuzz"
GRID_TARGETS = ("dnsmasq", "mosquitto", "libcoap", "modbus")
GRID_MODES = ("cmfuzz", "peach", "spfuzz")
#: The machine has two cores; the grids never ask for more.
GRID_WORKERS = 2
#: ``checkpoint_every`` of the durable campaign: the sync interval.
CHECKPOINT_EVERY = 600.0
#: Simulated seconds per timed segment of a campaign: the sync interval.
SEGMENT = 600.0
#: Where the outcome's wall time rides back from a dispatch-pass cell.
COMPUTE_ATTR = "_perfbench_compute_s"


@dataclass(frozen=True)
class Scale:
    """How much work one run does.

    Attributes:
        campaign_hours: Horizon of a ``campaign`` run's campaigns.
        durable_hours: Horizon of a ``campaign-durable`` run's
            campaigns (each save pickles the whole loop state, so they
            cost several times a plain campaign per simulated hour).
        campaigns: Distinct seeds per ``campaign`` run; their mix evens
            out how much work one seed happens to generate.
        durable_campaigns: Distinct seeds per ``campaign-durable`` run.
        grid_hours: Horizon of every grid cell.
        min_rounds: Timed repetitions of the whole unit a run makes at
            least, so each export is checked against a rerun.
    """

    campaign_hours: float = 12.0
    durable_hours: float = 6.0
    campaigns: int = 6
    durable_campaigns: int = 4
    grid_hours: float = 2.0
    min_rounds: int = 2


DEFAULT_SCALE = Scale()


@dataclass
class Tally:
    """Attempted and failed operations, with a reason per failure."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def check(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)


@dataclass
class RunResult:
    metrics: Dict[str, float]
    tally: Tally
    digests: Dict[str, str]
    #: Wall seconds of every timed repetition, in run order.
    walls: List[float] = field(default_factory=list)


class Pacer:
    """Repeats a run's rounds until ``seconds`` are spent.

    The clock starts when the pacer is made, so work done before the
    rounds counts too. It stops when the next round, predicted to last
    as long as the last one, plus ``reserve`` seconds of work still due
    after the rounds, would overrun; but never before ``min_reps``.
    """

    def __init__(self, seconds: float, min_reps: int):
        self.seconds = seconds
        self.min_reps = min_reps
        #: Timed wall seconds of each round, the figure metrics use.
        self.walls: List[float] = []
        self._last_round = 0.0
        self.started = time.perf_counter()

    def more(self, reserve: float = 0.0) -> bool:
        if len(self.walls) < self.min_reps:
            return True
        elapsed = time.perf_counter() - self.started
        return elapsed + self._last_round + reserve <= self.seconds

    def record(self, wall: float, round_s: Optional[float] = None) -> None:
        """Book a round whose timed part took ``wall`` seconds and which
        took ``round_s`` in all (default: ``wall``)."""
        self.walls.append(wall)
        self._last_round = wall if round_s is None else round_s


def peak_rss_mb() -> float:
    """This process's resident high-water mark plus its largest child's.

    Pool workers are forked, so a child's peak shares pages with the
    parent's; the sum bounds the run's footprint from above.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def campaign_configs(seed: int, workload: str, scale: Scale = DEFAULT_SCALE):
    """The campaign configs of a ``campaign``/``campaign-durable`` run."""
    from repro.harness.campaign import CampaignConfig

    durable = workload == "campaign-durable"
    count = scale.durable_campaigns if durable else scale.campaigns
    hours = scale.durable_hours if durable else scale.campaign_hours
    rng = random.Random("%s/%d" % (workload, seed))
    return [CampaignConfig(n_instances=4, duration_hours=hours,
                           seed=rng.randrange(1 << 20))
            for _ in range(count)]


def grid_specs(seed: int, scale: Scale = DEFAULT_SCALE):
    """The grid's cells; ``grid`` and ``grid-fleet`` share them."""
    from repro.harness.campaign import CampaignConfig
    from repro.harness.executor import CampaignSpec

    rng = random.Random("grid/%d" % seed)
    return [CampaignSpec(target=target, mode=mode,
                         config=CampaignConfig(n_instances=4,
                                               duration_hours=scale.grid_hours,
                                               seed=rng.randrange(1 << 20)))
            for target in GRID_TARGETS for mode in GRID_MODES]


def durable(config, workdir: str, tag: str):
    """``config`` with telemetry, a trace sink and checkpoints on."""
    from repro.telemetry import TelemetryConfig

    root = os.path.join(workdir, tag)
    return dataclasses.replace(
        config,
        telemetry=TelemetryConfig(enabled=True,
                                  trace_path=os.path.join(root, "trace.jsonl")),
        checkpoint_every=CHECKPOINT_EVERY,
        checkpoint_dir=os.path.join(root, "checkpoints"),
    )


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def campaign_export(result) -> str:
    from repro.harness.export import results_to_json

    return results_to_json([result])


def export_without_metrics(result) -> str:
    from repro.harness.export import result_to_dict

    data = result_to_dict(result)
    data.pop("metrics", None)
    return json.dumps(data, sort_keys=True, default=str)


def grid_export(outcomes) -> str:
    """The export ``execute_specs`` callers see: outcomes, not live runs."""
    from repro.harness.export import results_to_json

    return results_to_json([outcome.to_result() for outcome in outcomes])


# ---------------------------------------------------------------------------
# One campaign
# ---------------------------------------------------------------------------


@dataclass
class Timed:
    wall: float
    result: object
    #: Wall seconds of the campaign's consecutive parts: its set-up,
    #: each ``SEGMENT`` simulated seconds of its loop, and its wrap-up.
    #: They add up to ``wall``; reruns of a config split the same way.
    segments: List[float]

    @property
    def setup(self) -> float:
        return self.segments[0]


def timed_campaign(target: str, mode_name: str, config,
                   ledger: Optional[Ledger] = None,
                   setup_only: bool = False) -> Timed:
    """Run one in-process campaign through ``harness.campaign``.

    The public ``abort_hook``, called at every loop tick, marks the
    time: ``setup`` runs from the call to the first tick, and each
    later mark ends a segment of ``SEGMENT`` simulated seconds. The
    hook never aborts, so the export is unchanged, unless
    ``setup_only`` asks it to stop the campaign at its first tick
    (``result`` is then None). With a ledger, the mode's allocator is
    timed during set-up.
    """
    from repro.errors import CampaignInterrupted
    from repro.harness.campaign import run_campaign
    from repro.parallel import create_mode
    from repro.targets.registry import get_target

    entry = get_target(target)
    state_model = entry.state_model()
    mode = create_mode(mode_name)
    undo = wrap_allocator(ledger, mode) if ledger is not None else None
    marks: List[float] = []
    due = [0.0]

    def tick(iterations: int, sim_time: float) -> bool:
        if sim_time >= due[0]:
            marks.append(time.perf_counter())
            due[0] = (math.floor(sim_time / SEGMENT) + 1) * SEGMENT
            if undo is not None and len(marks) == 1:
                undo()
        return setup_only

    gc.collect()
    start = time.perf_counter()
    try:
        result = run_campaign(entry.target_cls, state_model, mode, config,
                              abort_hook=tick)
    except CampaignInterrupted:
        if not setup_only:
            raise
        result = None
    end = time.perf_counter()
    if undo is not None:
        undo()
    # A set-up that spends the whole horizon never ticks.
    bounds = [start] + marks + [end]
    return Timed(wall=end - start, result=result,
                 segments=[b - a for a, b in zip(bounds, bounds[1:])])


def _campaign_or_none(tally: Tally, label: str, *args, **kwargs):
    try:
        return timed_campaign(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - a raised campaign is a failure
        tally.check(False, "%s raised %s: %s" % (label, type(exc).__name__, exc))
        return None


# ---------------------------------------------------------------------------
# Untraced runs: the end-to-end metrics
# ---------------------------------------------------------------------------


def fastest_sum(samples: List[List[float]]) -> float:
    """The sum, over items, of each item's fastest sample.

    The machine this was written on runs the same code either at full
    speed or about 1.7 times slower, in slow stretches of a few seconds
    that cover anywhere from a twentieth to half of a minute. A median
    follows how much of a run fell into slow stretches; an item's
    fastest repeat follows the program.
    """
    return sum(min(values) for values in samples if values)


def full_speed_wall(reruns: List[List[float]]) -> float:
    """A campaign's wall time at full machine speed, from its reruns'
    segments: each segment's fastest time over the reruns, summed.

    A whole campaign takes most of a second, long enough that most
    reruns catch some slow stretch; a segment takes about a hundredth
    of that, so it is rare for every rerun to be slow in the same one.
    """
    return sum(min(column) for column in zip(*reruns))


def run_campaigns(workload: str, seed: int, seconds: float, workdir: str,
                  scale: Scale = DEFAULT_SCALE) -> RunResult:
    """``campaign`` and ``campaign-durable``: serial in-process campaigns.

    Round-robin over the run's configs until ``seconds`` are spent, each
    config at least ``min_rounds`` times; every export must digest the
    same as that config's first one. ``campaign-durable`` runs each
    config durably, after one plain run of it inside the budget, and
    every durable export must equal that plain export once ``metrics``
    is removed.
    """
    is_durable = workload == "campaign-durable"
    configs = campaign_configs(seed, workload, scale)
    tally = Tally()
    pacer = Pacer(seconds, len(configs) * scale.min_rounds)
    plain: Dict[int, str] = {}
    if is_durable:
        for index, config in enumerate(configs):
            run = _campaign_or_none(tally, "plain reference %d" % index,
                                    CAMPAIGN_TARGET, CAMPAIGN_MODE, config)
            if run is not None:
                tally.check(True, "")
                plain[index] = export_without_metrics(run.result)
    first: Dict[int, str] = {}
    reruns: List[List[List[float]]] = [[] for _ in configs]
    while pacer.more():
        rep = len(pacer.walls)
        index = rep % len(configs)
        label = "campaign %d repetition %d" % (index, rep)
        config = configs[index]
        if is_durable:
            config = durable(config, workdir, "rep-%d" % rep)
        run = _campaign_or_none(tally, label, CAMPAIGN_TARGET, CAMPAIGN_MODE,
                                config)
        shutil.rmtree(os.path.join(workdir, "rep-%d" % rep),
                      ignore_errors=True)
        if run is None:
            pacer.record(0.0)
            continue
        pacer.record(run.wall)
        text = digest(campaign_export(run.result))
        runs = reruns[index]
        reason = None
        if first.setdefault(index, text) != text:
            reason = "%s export differs from its first run" % label
        elif runs and len(runs[0]) != len(run.segments):
            reason = "%s ticked differently from its first run" % label
        elif is_durable and (plain.get(index)
                             != export_without_metrics(run.result)):
            reason = "%s export differs from the plain campaign" % label
        tally.check(reason is None, reason or "")
        if reason is None:
            runs.append(run.segments)
    ran = [(config, runs) for config, runs in zip(configs, reruns) if runs]
    wall = sum(full_speed_wall(runs) for _, runs in ran) or float("inf")
    return RunResult(
        metrics={
            "sim_hours_per_s": sum(c.duration_hours for c, _ in ran) / wall,
            "cells_per_s": len(ran) / wall,
            # A campaign's first segment is its set-up.
            "setup_s": fastest_sum([[segments[0] for segments in runs]
                                    for _, runs in ran]),
            "peak_rss_mb": peak_rss_mb(),
        },
        tally=tally,
        digests={str(i): first[i] for i in sorted(first)},
        walls=pacer.walls,
    )


def serial_grid(specs, tally: Tally, ledger: Optional[Ledger] = None):
    """Every cell in-process, in spec order.

    Returns (summed campaign wall, grid export or None). This is
    ``execute_specs(workers=1)``: the reference the pooled and fleet
    grids must byte-match.
    """
    from repro.harness.executor import CampaignOutcome

    outcomes = []
    wall = 0.0
    for index, spec in enumerate(specs):
        run = _campaign_or_none(tally, "serial cell %d" % index, spec.target,
                                spec.mode, spec.config, ledger=ledger)
        if run is None:
            continue
        tally.check(True, "")
        wall += run.wall
        outcomes.append(CampaignOutcome.from_result(run.result))
    complete = len(outcomes) == len(specs)
    return wall, grid_export(outcomes) if complete else None


def sample_setups(specs, tally: Tally, samples: List[List[float]]) -> None:
    """Run every cell in-process up to its first tick; append its set-up
    time to ``samples[index]``."""
    for index, spec in enumerate(specs):
        run = _campaign_or_none(tally, "set-up of cell %d" % index,
                                spec.target, spec.mode, spec.config,
                                setup_only=True)
        if run is not None:
            tally.check(True, "")
            samples[index].append(run.setup)


def dispatch_grid(specs, backend: str, runner: Optional[Callable] = None):
    """One grid through ``execute_specs``; returns (wall, cells)."""
    from repro.harness.executor import execute_specs

    gc.collect()
    start = time.perf_counter()
    cells = execute_specs(specs, workers=GRID_WORKERS, backend=backend,
                          runner=runner)
    return time.perf_counter() - start, cells


def _count_cells(tally: Tally, cells, label: str) -> Optional[str]:
    """Count each cell; returns the grid's export if every cell passed."""
    for cell in cells:
        tally.check(cell.ok, "%s cell %d failed: %s"
                    % (label, cell.index, cell.failure))
    if all(cell.ok for cell in cells):
        return grid_export([cell.outcome for cell in cells])
    return None


def _check_grid(tally: Tally, cells, reference: Optional[str], label: str):
    """Count each cell; a grid whose export differs fails one more op."""
    export = _count_cells(tally, cells, label)
    if export is not None:
        tally.check(export == reference,
                    "%s export differs from the serial grid" % label)


def run_cells(workload: str, seed: int, seconds: float,
              scale: Scale = DEFAULT_SCALE) -> RunResult:
    """``grid`` and ``grid-fleet``: the grid's cells on two workers.

    Each round dispatches every cell once (the timed part), then runs
    every cell in-process up to its first tick to sample its set-up.
    Rounds go on while the budget allows, keeping back time for a last
    serial pass: every cell in-process, in spec order, as
    ``execute_specs(workers=1)`` runs them. Every round's export must
    equal that pass's export; since ``grid`` and ``grid-fleet`` share
    specs and reference, each passing run also shows that the two
    backends export byte-identically.

    The peak resident size is read before the serial pass, so it covers
    the pooled rounds and the set-up samples only.
    """
    backend = "fleet" if workload == "grid-fleet" else "local"
    specs = grid_specs(seed, scale)
    tally = Tally()
    pacer = Pacer(seconds, scale.min_rounds)
    setups: List[List[float]] = [[] for _ in specs]
    exports: List[Optional[str]] = []
    # The serial pass lasts about as long as a round on one worker.
    while pacer.more(reserve=GRID_WORKERS * statistics.median(pacer.walls)
                     if pacer.walls else 0.0):
        start = time.perf_counter()
        wall, cells = dispatch_grid(specs, backend)
        export = _count_cells(tally, cells, "%s round %d"
                              % (workload, len(exports)))
        exports.append(None if export is None else digest(export))
        sample_setups(specs, tally, setups)
        pacer.record(wall, time.perf_counter() - start)
    peak = peak_rss_mb()
    _, reference = serial_grid(specs, tally)
    wanted = None if reference is None else digest(reference)
    for index, export in enumerate(exports):
        if export is not None:
            tally.check(export == wanted,
                        "%s round %d export differs from the serial grid"
                        % (workload, index))
    # A round is about a second of pooled work: short enough that many
    # rounds of a run miss every slow stretch (see ``fastest_sum``).
    wall = min(pacer.walls)
    hours = sum(spec.config.duration_hours for spec in specs)
    return RunResult(
        metrics={
            "sim_hours_per_s": hours / wall,
            "cells_per_s": len(specs) / wall,
            # A grid's set-up is what all its cells pay before their
            # first tick; peach and spfuzz cells build no model, so one
            # figure over all cells would hide the cmfuzz model builds.
            "setup_s": fastest_sum(setups),
            "peak_rss_mb": peak,
        },
        tally=tally,
        digests={"cells": wanted or ""},
        walls=pacer.walls,
    )


# ---------------------------------------------------------------------------
# Traced runs: the per-layer ledger
# ---------------------------------------------------------------------------


def _layer_classes(targets, modes):
    from repro.parallel import create_mode
    from repro.targets.registry import get_target

    return ([get_target(name).target_cls for name in targets],
            [type(create_mode(name)) for name in modes])


def _traced_campaign_passes(tally: Tally, run_pass, targets, modes):
    """Untraced, traced and coverage passes of the same unit of work.

    ``run_pass(ledger)`` runs the unit and returns (wall, export). The
    traced exports must equal the untraced one: wrappers time, they
    never change behaviour.
    """
    target_classes, mode_classes = _layer_classes(targets, modes)
    untraced_wall, reference = run_pass(None)

    ledger = Ledger()
    with Patches(ledger) as patches:
        install_campaign_layers(patches, target_classes, mode_classes)
        traced_wall, export = run_pass(ledger)
    tally.check(export == reference, "traced export differs from untraced")
    metrics = campaign_metrics(ledger, traced_wall)

    coverage = Ledger()
    with Patches(coverage) as patches:
        install_coverage_layer(patches)
        _, export = run_pass(coverage)
    tally.check(export == reference, "coverage-pass export differs")
    metrics.update(coverage_metrics(coverage))
    metrics["ledger.overhead"] = traced_wall / untraced_wall
    return metrics, reference


def trace_campaign(workload: str, seed: int, workdir: str,
                   scale: Scale = DEFAULT_SCALE) -> RunResult:
    """The ledger of the run's first campaign, plain and then durable.

    The additive ledger comes from the plain campaign. The durable pass
    runs the same config with telemetry, a trace sink and checkpoints,
    times only the checkpoint and sink layers, and must export what the
    plain campaign exported once ``metrics`` is removed.
    """
    config = campaign_configs(seed, workload, scale)[0]
    tally = Tally()
    results = []

    def run_pass(ledger, cfg=config):
        run = _campaign_or_none(tally, "traced campaign", CAMPAIGN_TARGET,
                                CAMPAIGN_MODE, cfg, ledger=ledger)
        if run is None:
            return float("nan"), None
        tally.check(True, "")
        results.append(run.result)
        return run.wall, campaign_export(run.result)

    metrics, reference = _traced_campaign_passes(
        tally, run_pass, [CAMPAIGN_TARGET], [CAMPAIGN_MODE])

    writes = Ledger()
    durable_config = durable(config, workdir, "trace-durable")
    with Patches(writes) as patches:
        install_durable_layers(patches)
        _, export = run_pass(writes, durable_config)
    if export is not None:
        tally.check(export_without_metrics(results[0])
                    == export_without_metrics(results[-1]),
                    "durable export differs from the plain campaign")
    metrics.update(durable_metrics(writes))
    metrics["telemetry.trace_bytes"] = os.path.getsize(
        durable_config.telemetry.trace_path)
    shutil.rmtree(os.path.join(workdir, "trace-durable"), ignore_errors=True)
    return RunResult(metrics=metrics, tally=tally,
                     digests={"0": digest(reference) if reference else ""})


def _timed_run_spec(spec):
    """``run_spec`` that ships its own wall time back on the outcome.

    It runs in a forked pool worker or a fleet agent thread; the parent
    pops the attribute before anything reads the outcome.
    """
    from repro.harness.executor import run_spec

    start = time.perf_counter()
    outcome = run_spec(spec)
    setattr(outcome, COMPUTE_ATTR, time.perf_counter() - start)
    return outcome


def _traced_dispatch(specs, backend: str, tally: Tally,
                     reference: Optional[str]):
    """One grid on ``backend`` with ``run_spec`` timed inside each cell.

    Returns (wall, summed cell compute, cells, client ledger); the fleet
    client's calls are timed from the parent process's threads.
    """
    client = Ledger()
    with Patches(client) as patches:
        if backend == "fleet":
            install_fleet_client_layer(patches)
        wall, cells = dispatch_grid(specs, backend, runner=_timed_run_spec)
    compute = sum(cell.outcome.__dict__.pop(COMPUTE_ATTR)
                  for cell in cells if cell.ok)
    _check_grid(tally, cells, reference, "traced %s grid" % backend)
    return wall, compute, cells, client


def trace_grid(workload: str, seed: int,
               scale: Scale = DEFAULT_SCALE) -> RunResult:
    """Cell-internal layers from serial passes, dispatch from the parent.

    Both dispatch backends run once, so the pool's and the fleet's
    layers are measured, and both must export the serial grid's bytes.
    """
    specs = grid_specs(seed, scale)
    tally = Tally()

    def run_pass(ledger):
        return serial_grid(specs, tally, ledger=ledger)

    metrics, reference = _traced_campaign_passes(
        tally, run_pass, GRID_TARGETS, GRID_MODES)

    wall, compute, cells, _ = _traced_dispatch(specs, "local", tally,
                                               reference)
    attempts = sum(cell.attempts for cell in cells)
    metrics.update({
        "harness.pool.cell_compute_s": compute,
        "harness.pool.efficiency": compute / (GRID_WORKERS * wall),
        "harness.pool.attempts": attempts,
        "harness.pool.retries": attempts - len(cells),
        "harness.pool.outcome_bytes": sum(len(pickle.dumps(cell.outcome))
                                          for cell in cells if cell.ok),
    })

    wall, compute, _, client = _traced_dispatch(specs, "fleet", tally,
                                                reference)
    metrics.update(fleet_metrics(client))
    metrics["fleet.efficiency"] = compute / (GRID_WORKERS * wall)
    return RunResult(metrics=metrics, tally=tally,
                     digests={"grid": digest(reference) if reference else ""})
