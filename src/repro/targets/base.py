"""Base class shared by the six protocol targets.

A target is a configurable protocol server with explicit branch-coverage
instrumentation. Its lifecycle mirrors a real SUT under a fuzzing
harness:

1. :meth:`startup` — apply a configuration assignment over the defaults,
   validate it (conflicting combinations raise
   :class:`~repro.errors.StartupError`), and execute the instrumented
   initialisation logic whose coverage the relation quantifier measures;
2. :meth:`handle_packet` — parse one protocol message inside the current
   session, hitting branch sites and possibly raising a
   :class:`~repro.targets.faults.SanitizerFault` when an injected bug's
   trigger condition is met;
3. :meth:`reset_session` — drop per-connection state after a crash or at
   the start of a new fuzzing iteration.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.core.extraction import ConfigSources
from repro.coverage.collector import CoverageCollector
from repro.errors import StartupError, TargetError
from repro.targets.faults import SanitizerFault


class ProtocolTarget:
    """Abstract configurable protocol server."""

    #: Implementation name (e.g. ``"mosquitto"``).
    NAME = "abstract"
    #: Protocol name as used in Table II (e.g. ``"MQTT"``).
    PROTOCOL = "NONE"
    #: Default listen port.
    PORT = 0

    def __init__(self, collector: Optional[CoverageCollector] = None):
        self.cov = collector or CoverageCollector(self.NAME)
        self.config: Dict[str, Any] = {}
        self.started = False

    # -- configuration surface ------------------------------------------------

    @classmethod
    def config_sources(cls) -> ConfigSources:
        """The raw configuration sources identification consumes."""
        raise NotImplementedError

    @classmethod
    def entity_overrides(cls) -> Dict[str, dict]:
        """Optional per-item overrides for entity construction."""
        return {}

    @classmethod
    def default_config(cls) -> Dict[str, Any]:
        """The default (out-of-the-box) configuration assignment."""
        raise NotImplementedError

    # -- lifecycle -------------------------------------------------------------

    def startup(self, assignment: Optional[Dict[str, Any]] = None) -> None:
        """Start the server with ``assignment`` layered over the defaults."""
        merged = dict(self.default_config())
        if assignment:
            if not merged.keys() >= assignment.keys():
                unknown = [name for name in assignment if name not in merged]
                raise StartupError(
                    "unknown configuration keys: %s"
                    % ", ".join(sorted(unknown)),
                    conflicting=unknown,
                )
            merged.update(assignment)
        if "port" in merged:
            try:
                port = int(merged["port"])
            except (TypeError, ValueError):
                raise StartupError("port is not numeric", ("port",))
            if not 0 < port < 65536:
                raise StartupError("port %d out of range" % port, ("port",))
        self.config = merged
        self._startup_impl()
        self.started = True
        self.reset_session()

    def _startup_impl(self) -> None:
        """Instrumented initialisation; raises StartupError on conflicts."""
        raise NotImplementedError

    def handle_packet(self, data: bytes) -> bytes:
        """Parse and process one inbound protocol message."""
        raise NotImplementedError

    def reset_session(self) -> None:
        """Drop per-connection protocol state."""

    def require_started(self) -> None:
        if not self.started:
            raise TargetError("%s target used before startup()" % self.NAME)

    # -- helpers ---------------------------------------------------------------

    def cfg(self, name: str) -> Any:
        """Current value of a configuration key."""
        try:
            return self.config[name]
        except KeyError:
            raise TargetError("unknown configuration key %r" % name)

    def enabled(self, name: str) -> bool:
        """Truthiness of a boolean-ish configuration key."""
        try:
            value = self.config[name]
        except KeyError:
            value = self.cfg(name)  # raises the TargetError
        if isinstance(value, str):
            return value.strip().lower() in ("true", "yes", "on", "1")
        return bool(value)


#: Produces a fresh target instance recording into the coverage
#: collector it is called with; it names the target's coverage
#: component in ``NAME``. A :class:`ProtocolTarget` subclass is one.
TargetFactory = Callable[[Any], ProtocolTarget]


def startup_probe_for(
    factory: TargetFactory, on_fault: Optional[Callable] = None
) -> Callable[[Dict[str, Any]], frozenset]:
    """Build the startup probe the relation quantifier consumes.

    Each probe call starts a *fresh* target instance with the given
    partial assignment and returns the startup coverage as a
    ``frozenset`` of site strings (see
    :data:`repro.core.relation.StartupProbe`); startup failures
    propagate as :class:`StartupError` (the quantifier maps them to zero
    coverage). Every target of the probe stream records into one
    :class:`~repro.coverage.collector.CoverageCollector`, reset before
    each startup, so every probe shares one string per site; equal
    startups return one shared ``frozenset``.

    Args:
        factory: Produces fresh target instances (see
            :data:`TargetFactory`).
        on_fault: Optional callback for sanitizer faults raised *during
            startup* — a configuration combination that crashes the
            target is both a finding and a failed launch. When given, the
            fault is passed to the callback and the probe reports a
            startup failure; when omitted, the fault propagates.
    """

    collector = CoverageCollector(factory.NAME)
    # Each distinct site set -> its one shared frozenset.
    shared: Dict[frozenset, frozenset] = {}

    def probe(assignment: Dict[str, Any]) -> frozenset:
        target = factory(collector)
        collector.reset()
        try:
            target.startup(assignment)
        except SanitizerFault as fault:
            if on_fault is None:
                raise
            on_fault(fault)
            raise StartupError(str(fault), tuple(assignment))
        sites = frozenset(collector.total)
        return shared.setdefault(sites, sites)

    return probe
