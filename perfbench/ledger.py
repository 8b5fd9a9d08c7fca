"""Outside-in per-layer timing for the benchmark's traced runs.

Each layer is measured from outside the program: a traced pass replaces
the public functions named below with timing wrappers, runs the
workload, and puts the originals back. Untraced passes therefore run
the unmodified program, and nothing under ``src/`` knows it is timed.

A wrapper records *self time*: its call's duration minus the time its
wrapped callees took. Self times of different layers never overlap, so
they add up, and the wall time they leave over is the named residual
``harness.campaign.loop_self_s`` (the loop's own bookkeeping plus every
function no layer owns). Two groups get passes of their own and are
not added: collector calls, which are hit tens of times per packet, so
wrapping them would swamp the ledger (they are nested inside
``targets.handle_packet_s``); and checkpoint saves and trace-sink
writes, which only a durable campaign makes.

Accumulators are per thread, because fleet agents run cells and client
calls on their own threads.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: The layers whose self times partition a campaign's wall time, as
#: (metric, wrapper name) pairs. The residual completes the partition.
ADDITIVE_LAYERS = (
    ("core.extract_s", "core.extract"),
    ("core.quantify_s", "core.quantify"),
    ("core.allocate_s", "core.allocate"),
    ("fuzzing.iteration_self_s", "fuzzing.iteration"),
    ("fuzzing.mutate_s", "fuzzing.mutate"),
    ("fuzzing.encode_s", "fuzzing.encode"),
    ("netns.transport_self_s", "netns.transport"),
    ("targets.handle_packet_s", "targets.handle_packet"),
    ("parallel.on_sync_s", "parallel.on_sync"),
    ("parallel.after_iteration_s", "parallel.after_iteration"),
)

#: CoordinatorClient methods timed on the fleet's dispatch pass.
FLEET_METHODS = ("lease", "heartbeat", "report", "status")
#: Further client calls the fleet makes; counted in the totals only.
FLEET_OTHER_METHODS = ("register", "submit", "cell_result")


class Ledger:
    """Self-time and call-count accumulators fed by timing wrappers."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[Tuple[list, Dict[str, float], Dict[str, int]]] = []
        self._values: Dict[str, float] = defaultdict(float)

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], defaultdict(float), defaultdict(int))
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def add(self, name: str, amount: float) -> None:
        """Accumulate a value read off a wrapped call's result."""
        with self._lock:
            self._values[name] += amount

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable[[Any], None]] = None) -> Callable:
        """``fn`` with its self time and calls booked under ``name``."""
        state_of = self._state
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack, self_s, calls = state_of()
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                self_s[name] += elapsed - inner
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return timed

    def totals(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Self seconds and calls per wrapper name, over all threads."""
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        with self._lock:
            states = list(self._states)
        for _, thread_self, thread_calls in states:
            for name, value in thread_self.items():
                self_s[name] += value
            for name, value in thread_calls.items():
                calls[name] += value
        return self_s, calls

    def value(self, name: str) -> float:
        with self._lock:
            return self._values.get(name, 0.0)


class Patches:
    """Attribute replacements, undone in reverse order on exit."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self._undo: List[Tuple[Any, str, Any]] = []
        self._done = set()

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._done.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def method(self, cls: type, attr: str, name: str,
               on_result: Optional[Callable] = None) -> None:
        """Time ``cls.attr`` on the class that defines it (once)."""
        owner = next(k for k in cls.__mro__ if attr in k.__dict__)
        if (owner, attr) in self._done:
            return
        self._done.add((owner, attr))
        self._set(owner, attr,
                  self.ledger.wrap(name, owner.__dict__[attr], on_result))

    def function(self, fn: Callable, name: str) -> None:
        """Time a module-level function in every ``repro`` module that
        bound it by name (``from x import fn`` copies the reference)."""
        wrapped = self.ledger.wrap(name, fn)
        for module_name, module in list(sys.modules.items()):
            if (module_name == "repro" or module_name.startswith("repro.")) \
                    and getattr(module, fn.__name__, None) is fn:
                self._set(module, fn.__name__, wrapped)


def install_campaign_layers(patches: Patches, target_classes: Iterable[type],
                            mode_classes: Iterable[type]) -> None:
    """Wrap every additive layer a campaign crosses."""
    from repro.core.extraction import extract_entities
    from repro.core.relation import RelationQuantifier
    from repro.fuzzing import strategies
    from repro.fuzzing.datamodel import Message
    from repro.fuzzing.engine import (
        BatchedChannelTransport,
        ChannelTransport,
        DirectTransport,
        FuzzEngine,
    )

    ledger = patches.ledger
    patches.function(extract_entities, "core.extract")
    patches.method(
        RelationQuantifier, "quantify", "core.quantify",
        on_result=lambda out: ledger.add("core.quantify_launches",
                                         out[1].launches))
    patches.method(
        FuzzEngine, "run_iteration", "fuzzing.iteration",
        on_result=lambda out: ledger.add("fuzzing.messages",
                                         out.messages_sent))
    for cls in (strategies.RandomFieldStrategy,
                strategies.FieldExhaustiveStrategy):
        patches.method(cls, "apply", "fuzzing.mutate")
    patches.method(Message, "encode", "fuzzing.encode")
    for cls in (DirectTransport, ChannelTransport, BatchedChannelTransport):
        patches.method(cls, "send", "netns.transport")
    for cls in target_classes:
        patches.method(cls, "handle_packet", "targets.handle_packet")
    for cls in mode_classes:
        patches.method(cls, "on_sync", "parallel.on_sync")
        patches.method(cls, "after_iteration", "parallel.after_iteration")


def install_durable_layers(patches: Patches) -> None:
    """Wrap checkpoint saves and trace-sink writes (own pass)."""
    from repro.harness.checkpoint import CheckpointStore
    from repro.telemetry.tracing import TraceSink

    ledger = patches.ledger
    patches.method(
        CheckpointStore, "save", "harness.checkpoint.save",
        on_result=lambda path: ledger.add("harness.checkpoint.bytes",
                                          os.path.getsize(path)))
    patches.method(TraceSink, "emit", "telemetry.emit")


def install_coverage_layer(patches: Patches) -> None:
    """Wrap the coverage collectors' recording calls (own pass)."""
    from repro.coverage.collector import (
        CoverageCollector,
        InternedCoverageCollector,
    )

    for cls in (CoverageCollector, InternedCoverageCollector):
        for attr in ("branch", "hit", "start_run"):
            patches.method(cls, attr, "coverage.record")


def install_fleet_client_layer(patches: Patches) -> None:
    """Wrap the fleet's HTTP client methods (agents and submitter)."""
    from repro.fleet.client import CoordinatorClient

    for attr in FLEET_METHODS + FLEET_OTHER_METHODS:
        patches.method(CoordinatorClient, attr, "fleet." + attr)


def wrap_allocator(ledger: Ledger, mode) -> Callable[[], None]:
    """Time a CMFuzz-family mode's allocator; returns the undo.

    The allocator is an instance attribute (bound from a default
    argument), so it is wrapped on the mode object. Allocation runs
    only while instances are created, so callers undo the wrap at the
    first loop tick, before any checkpoint pickles the mode.
    """
    original = getattr(mode, "allocator", None)
    if original is None:
        return lambda: None
    mode.allocator = ledger.wrap("core.allocate", original)

    def undo() -> None:
        mode.allocator = original

    return undo


def campaign_metrics(ledger: Ledger, wall: float) -> Dict[str, float]:
    """The additive ledger of a traced campaign pass of ``wall`` seconds."""
    self_s, calls = ledger.totals()
    metrics = {metric: self_s.get(name, 0.0)
               for metric, name in ADDITIVE_LAYERS}
    metrics["harness.campaign.loop_self_s"] = wall - sum(metrics.values())
    metrics["core.quantify_launches"] = ledger.value("core.quantify_launches")
    metrics["fuzzing.execs"] = calls.get("fuzzing.iteration", 0)
    metrics["fuzzing.messages"] = ledger.value("fuzzing.messages")
    metrics["targets.packets"] = calls.get("targets.handle_packet", 0)
    metrics["parallel.sync_rounds"] = calls.get("parallel.on_sync", 0)
    metrics["ledger.wall_s"] = wall
    return metrics


def coverage_metrics(ledger: Ledger) -> Dict[str, float]:
    self_s, calls = ledger.totals()
    return {"coverage.calls": calls.get("coverage.record", 0),
            "coverage.record_s": self_s.get("coverage.record", 0.0)}


def durable_metrics(ledger: Ledger) -> Dict[str, float]:
    self_s, calls = ledger.totals()
    return {
        "harness.checkpoint.save_s": self_s.get("harness.checkpoint.save", 0.0),
        "harness.checkpoint.saves": calls.get("harness.checkpoint.save", 0),
        "harness.checkpoint.bytes": ledger.value("harness.checkpoint.bytes"),
        "telemetry.emit_s": self_s.get("telemetry.emit", 0.0),
    }


def fleet_metrics(ledger: Ledger) -> Dict[str, float]:
    """Per-method client calls/seconds plus totals and mean round trip."""
    self_s, calls = ledger.totals()
    metrics: Dict[str, float] = {}
    for attr in FLEET_METHODS:
        metrics["fleet.%s_calls" % attr] = calls.get("fleet." + attr, 0)
        metrics["fleet.%s_s" % attr] = self_s.get("fleet." + attr, 0.0)
    every = FLEET_METHODS + FLEET_OTHER_METHODS
    total_calls = sum(calls.get("fleet." + attr, 0) for attr in every)
    total_s = sum(self_s.get("fleet." + attr, 0.0) for attr in every)
    metrics["fleet.client_calls"] = total_calls
    metrics["fleet.client_s"] = total_s
    metrics["fleet.roundtrip_ms"] = (1000.0 * total_s / total_calls
                                     if total_calls else 0.0)
    return metrics
