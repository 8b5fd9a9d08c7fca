"""One parallel fuzzing instance: namespace + target + engine."""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.reassembly import ConfigBundle
from repro.coverage.collector import CoverageCollector
from repro.fuzzing.engine import DirectTransport, FuzzEngine, IterationResult
from repro.netns.namespace import NetworkNamespace
from repro.targets.base import ProtocolTarget


class FuzzingInstance:
    """An isolated fuzzing worker.

    Owns a network namespace, a live target (restartable), the engine
    driving it, and — under CMFuzz — the configuration bundle assigned to
    this instance.
    """

    def __init__(
        self,
        index: int,
        target_cls,
        namespace: NetworkNamespace,
        engine_factory,
        bundle: Optional[ConfigBundle] = None,
    ):
        self.index = index
        self.target_cls = target_cls
        self.namespace = namespace
        self.bundle = bundle or ConfigBundle()
        self.collector = CoverageCollector(target_cls.NAME)
        #: Instance is unavailable until this simulated time (restarting).
        self.down_until = 0.0
        #: Permanently disabled (supervisor gave up on revival).
        self.dead = False
        #: Circuit-breaker state: parked by the supervisor, revivable.
        self.quarantined = False
        self.restarts = 0
        self.config_mutations = 0
        self.hangs = 0
        self.target: Optional[ProtocolTarget] = None
        #: Optional chaos proxy applied to every freshly built target.
        self.target_wrapper = None
        self._bound_port: Optional[int] = None
        self._engine_factory = engine_factory
        self.engine: Optional[FuzzEngine] = None
        #: Whether this instance's engine queues its seeds for
        #: broadcast; the campaign sets it from its mode (see
        #: :attr:`repro.parallel.base.ParallelMode.synchronizer`).
        self.share_seeds = True

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Boot the target with the bundle's assignment and arm the engine.

        Raises StartupError/SanitizerFault from the target's startup; the
        caller decides how to recover (the campaign records startup
        faults as bugs).
        """
        target = self.target_cls(collector=self.collector)
        if self.target_wrapper is not None:
            target = self.target_wrapper(target)
        target.startup(dict(self.bundle.assignment))
        port = int(target.config.get("port", target.PORT) or target.PORT)
        if port != self._bound_port:
            # Rebind when an adaptive config mutation moved the port, so
            # the namespace's port space matches the running target.
            if self._bound_port is not None:
                self.namespace.release(self._bound_port)
            self.namespace.bind(port)
            self._bound_port = port
        self.target = target
        transport = DirectTransport(target)
        if self.engine is None:
            self.engine = self._engine_factory(transport, self.collector)
            if not self.share_seeds:
                self.engine.share_seeds = False
        else:
            self.engine.transport = transport

    def restart(self, assignment: Optional[Dict[str, Any]] = None) -> None:
        """Restart the target, optionally with a new assignment."""
        if assignment is not None:
            self.bundle = ConfigBundle(
                assignment=dict(assignment), group=list(self.bundle.group)
            )
        self.restarts += 1
        self.start()

    # -- stepping ----------------------------------------------------------

    def available(self, now: float) -> bool:
        return not self.dead and not self.quarantined and now >= self.down_until

    def step(self) -> IterationResult:
        if self.engine is None:
            raise RuntimeError("instance %d stepped before start()" % self.index)
        return self.engine.run_iteration()

    @property
    def coverage(self) -> int:
        return len(self.collector.total)

    def __repr__(self) -> str:
        return "FuzzingInstance(#%d, %s, cov=%d)" % (
            self.index,
            self.target_cls.NAME,
            self.coverage,
        )
