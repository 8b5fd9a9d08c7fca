"""Deterministic fault injection for the harness's own I/O boundaries.

:mod:`repro.targets.chaos` makes the *fuzzing targets* flaky; this
module makes the *infrastructure* flaky — the result cache, the probe
cache, the checkpoint store, the worker pool and the telemetry sink —
and carries the policies that keep a campaign's exports byte-identical
anyway. The invariant every boundary enforces: faults may cost time,
never results.

Four pieces:

- :class:`FaultPlan` — a frozen, picklable, seeded schedule. Whether
  operation ``op_index`` at boundary ``site`` faults (and how) is a pure
  function of ``(seed, site, op_index)``: a sha256-derived unit draw
  against ``level``, then a second draw picking among the fault kinds
  the call site can honour (transient ``OSError``, slow write,
  corrupt-on-read, worker death). The same plan replays the same
  weather, independent of wall clock, PID or dict order.
- :class:`BackoffPolicy` — the bounded-retry schedule for transients:
  exponential backoff with deterministic seeded jitter, so tests can
  assert the exact attempt times.
- :class:`InjectedDeaths` — which worker launches a plan dooms, capped
  per cell; the process pool and fleet agents both consult one.
- :class:`FaultInjector` — the per-campaign stateful wrapper call sites
  consult. :meth:`FaultInjector.run` executes one I/O operation under
  the plan: injected and *real* transient ``OSError`` alike are retried
  on the backoff schedule, and exhaustion either re-raises the original
  error (``strict`` — the ``--strict-io`` escape hatch) or raises
  :class:`IoGiveUp` for the boundary to catch and degrade gracefully.

Retry delays are charged to a private virtual clock, **never** to the
campaign's simulated clock: sim time is part of the exported coverage
series, so a retry that advanced it would violate the byte-identical
invariant (and make fault-storm tests slow). Wire a real ``sleep`` in
via ``clock`` if wall-clock backoff is ever wanted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.errors import HarnessError
from repro.telemetry import NULL_TELEMETRY

__all__ = [
    "FAULT_CORRUPT",
    "FAULT_KINDS",
    "FAULT_SLOW",
    "FAULT_TRANSIENT",
    "FAULT_WORKER_DEATH",
    "BackoffPolicy",
    "FaultInjector",
    "FaultPlan",
    "InjectedDeaths",
    "InjectedIOError",
    "IoGiveUp",
    "NULL_INJECTOR",
    "RetryClock",
    "corrupt_bytes",
]

#: A transient I/O error: the op is retried on the backoff schedule.
FAULT_TRANSIENT = "transient"
#: The op succeeds but is slow; the delay is charged to the retry clock.
FAULT_SLOW = "slow"
#: A read returns damaged bytes (exercises quarantine / sha fallback).
FAULT_CORRUPT = "corrupt"
#: A pool worker dies before shipping a result (pool sites only).
FAULT_WORKER_DEATH = "worker-death"

FAULT_KINDS = (FAULT_TRANSIENT, FAULT_SLOW, FAULT_CORRUPT, FAULT_WORKER_DEATH)


class RetryClock:
    """The injector's private virtual clock for retry/slow-fault time.

    Deliberately *not* the campaign's :class:`repro.harness.simclock.
    SimClock` (same contract, zero imports): backoff charged here is
    observable to tests and telemetry but invisible to the simulated
    campaign timeline, which is part of the exported byte stream.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise HarnessError("cannot advance the retry clock backwards")
        self._now += seconds
        return self._now


class InjectedIOError(OSError):
    """An injected transient fault, distinguishable from real weather."""


class IoGiveUp(HarnessError):
    """Retries exhausted on one I/O op; the boundary decides how to degrade.

    Attributes:
        site: The boundary that gave up.
        original: The final error of the retry sequence.
    """

    def __init__(self, site: str, original: BaseException):
        self.site = site
        self.original = original
        super().__init__(
            "I/O retries exhausted at %s: %s" % (site, original))


def _unit(seed: int, site: str, op_index: int, salt: str) -> float:
    """A deterministic draw in [0, 1) keyed by ``(seed, site, op, salt)``."""
    digest = hashlib.sha256(
        ("%d\x1f%s\x1f%d\x1f%s" % (seed, site, op_index, salt)).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def corrupt_bytes(blob: Optional[bytes]) -> Optional[bytes]:
    """Deterministically damage a read payload (the corrupt-on-read fault).

    Zeroes the leading bytes, which breaks any pickle stream and any
    sha256 digest check while keeping the length plausible.
    """
    if blob is None:
        return None
    head = min(len(blob), 16)
    return b"\x00" * head + blob[head:]


@dataclass(frozen=True)
class BackoffPolicy:
    """Bounded exponential backoff with deterministic seeded jitter.

    ``delay(seed, site, attempt)`` for attempt ``n`` (1-based, the wait
    *before* retry ``n``) is ``min(base * multiplier**(n-1), max_delay)``
    stretched by up to ``jitter`` of itself — the stretch drawn from the
    same sha256 stream as the fault plan, so two runs with one seed wait
    identically and tests can assert the exact schedule.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25

    def __post_init__(self):
        if self.max_attempts < 1:
            raise HarnessError("need at least one attempt")

    def delay(self, seed: int, site: str, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` (1-based)."""
        base = min(self.base_delay * self.multiplier ** (attempt - 1),
                   self.max_delay)
        return base * (1.0 + self.jitter * _unit(seed, site, attempt, "jitter"))

    def schedule(self, seed: int, site: str) -> Tuple[float, ...]:
        """Every retry delay this policy would apply at ``site``."""
        return tuple(self.delay(seed, site, attempt)
                     for attempt in range(1, self.max_attempts))


@dataclass(frozen=True)
class FaultPlan:
    """A picklable, seeded infrastructure-fault schedule.

    ``decide(site, op_index, kinds)`` is pure: the same plan always
    faults the same operations the same way, so a campaign replayed
    under one plan sees identical weather regardless of process layout.
    """

    seed: int = 0
    level: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.level <= 1.0:
            raise HarnessError(
                "io-chaos level must be in [0, 1], got %r" % (self.level,))

    @property
    def enabled(self) -> bool:
        return self.level > 0.0

    def decide(self, site: str, op_index: int,
               kinds: Sequence[str]) -> Optional[str]:
        """The fault kind injected into this operation, or ``None``.

        ``kinds`` lists what the call site can honour (a cache write
        cannot corrupt-on-read); the whether-to-fault draw is
        kind-independent so injected-op counts can be recomputed from
        ``(seed, level, site, op_index)`` alone.
        """
        if not kinds or not self.enabled:
            return None
        if _unit(self.seed, site, op_index, "inject") >= self.level:
            return None
        pick = int(_unit(self.seed, site, op_index, "kind") * len(kinds))
        return kinds[min(pick, len(kinds) - 1)]


class FaultInjector:
    """Per-campaign fault-plan executor: consult, inject, retry, account.

    One injector is shared by every boundary of a campaign; each site
    keeps its own operation counter so the plan's ``(site, op_index)``
    keying is stable. The whole object pickles (it crosses the
    checkpoint boundary inside the loop state) — ``telemetry`` must be
    a picklable :class:`repro.telemetry.Telemetry`.

    Args:
        plan: The fault schedule; the default injects nothing.
        telemetry: Counters/events sink (``faultplane.*``; stripped from
            export snapshots, visible live and in traces). May be
            rebound after construction once the campaign telemetry
            exists.
        strict: The ``--strict-io`` escape hatch — retries still run,
            but exhaustion re-raises the original error instead of
            signalling :class:`IoGiveUp`, restoring fail-fast.
        backoff: Retry schedule for transient errors.
        clock: The virtual retry clock; defaults to a private
            :class:`RetryClock` so retries never consume real time nor
            the campaign's simulated time.
    """

    def __init__(self, plan: Optional[FaultPlan] = None, telemetry=None,
                 strict: bool = False, backoff: Optional[BackoffPolicy] = None,
                 clock: Optional[RetryClock] = None):
        self.plan = plan or FaultPlan()
        self.telemetry = telemetry or NULL_TELEMETRY
        self.strict = strict
        self.backoff = backoff or BackoffPolicy()
        self.clock = clock or RetryClock()
        #: Per-site operation counters (the plan's op_index stream).
        self.ops: Dict[str, int] = {}
        #: Per-site injected-fault counts by kind.
        self.injected: Dict[str, Dict[str, int]] = {}

    @classmethod
    def from_campaign_config(cls, config: Any) -> "FaultInjector":
        """The injector a campaign config describes (possibly a no-op)."""
        return cls(
            plan=FaultPlan(seed=getattr(config, "io_chaos_seed", 0),
                           level=getattr(config, "io_chaos_level", 0.0)),
            strict=getattr(config, "strict_io", False),
        )

    @property
    def enabled(self) -> bool:
        return self.plan.enabled

    def summary(self) -> Dict[str, Any]:
        """Accounting snapshot: ops consulted and faults injected per site."""
        return {
            "seed": self.plan.seed,
            "level": self.plan.level,
            "ops": dict(self.ops),
            "injected": {site: dict(kinds)
                         for site, kinds in self.injected.items()},
        }

    def absorb(self, other: "FaultInjector") -> None:
        """Merge another injector's accounting (pre-resume store loads)."""
        if other is self:
            return
        for site, count in other.ops.items():
            self.ops[site] = self.ops.get(site, 0) + count
        for site, kinds in other.injected.items():
            mine = self.injected.setdefault(site, {})
            for kind, count in kinds.items():
                mine[kind] = mine.get(kind, 0) + count

    def fault_for(self, site: str, kinds: Sequence[str]) -> Optional[str]:
        """Consult the plan for the next operation at ``site``."""
        if not self.enabled:
            return None
        op_index = self.ops.get(site, 0)
        self.ops[site] = op_index + 1
        kind = self.plan.decide(site, op_index, kinds)
        if kind is None:
            return None
        per_site = self.injected.setdefault(site, {})
        per_site[kind] = per_site.get(kind, 0) + 1
        self.telemetry.counter("faultplane.injected",
                               site=site, kind=kind).inc()
        if not site.startswith("telemetry."):
            # Sink faults must not emit through the sink being faulted.
            self.telemetry.event("faultplane.injected", site=site, kind=kind,
                                 op=op_index)
        return kind

    def run(self, site: str, fn: Callable[[], Any],
            kinds: Sequence[str] = (FAULT_TRANSIENT,),
            on_corrupt: Optional[Callable[[Any], Any]] = None) -> Any:
        """Execute one I/O operation under the plan's weather.

        Injected transients and real ``OSError`` alike are retried up to
        ``backoff.max_attempts`` times with backoff charged to the
        virtual clock. A slow fault charges ``backoff.max_delay`` and
        proceeds; a corrupt fault maps the successful result through
        ``on_corrupt``.

        Raises:
            IoGiveUp: Retries exhausted (``strict=False``); carries the
                original error for the boundary's degradation path.
            OSError: The original error, when ``strict`` (fail-fast).
        """
        last_error: Optional[BaseException] = None
        for attempt in range(self.backoff.max_attempts):
            if attempt:
                self.telemetry.counter("faultplane.retries", site=site).inc()
                self.clock.advance(
                    self.backoff.delay(self.plan.seed, site, attempt))
            kind = self.fault_for(site, kinds)
            try:
                if kind == FAULT_TRANSIENT:
                    raise InjectedIOError(
                        "faultplane: injected transient I/O error at %s"
                        % site)
                result = fn()
            except OSError as exc:
                last_error = exc
                continue
            if kind == FAULT_SLOW:
                self.clock.advance(self.backoff.max_delay)
            if kind == FAULT_CORRUPT and on_corrupt is not None:
                result = on_corrupt(result)
            return result
        assert last_error is not None
        if self.strict:
            raise last_error
        raise IoGiveUp(site, last_error)


#: The shared disabled injector: consults nothing, injects nothing, but
#: still applies the retry/degrade contract to *real* I/O errors.
NULL_INJECTOR = FaultInjector()


class InjectedDeaths:
    """Which worker launches at ``site`` the injector dooms to die.

    At most :attr:`CAP` launches per cell ``key`` die, so an io-chaos
    level of 1.0 cannot livelock the pool or a fleet agent. A capped
    cell consumes no op at the site.
    """

    CAP = 3

    def __init__(self, injector: Optional[FaultInjector], site: str):
        self.injector = injector
        self.site = site
        self.deaths: Dict[Any, int] = {}

    def doomed(self, key: Any) -> bool:
        """Whether this launch of cell ``key`` dies before its result."""
        if self.injector is None or not self.injector.enabled \
                or self.deaths.get(key, 0) >= self.CAP:
            return False
        if self.injector.fault_for(
                self.site, kinds=(FAULT_WORKER_DEATH,)) is None:
            return False
        self.deaths[key] = self.deaths.get(key, 0) + 1
        return True
