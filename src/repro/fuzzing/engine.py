"""The single-instance fuzzing engine.

One engine drives one target session: per iteration it samples a path
through the state model, generates (and usually mutates) a message for
every send action, pushes it through a transport, and observes branch
coverage and faults. Messages that discovered new branches join a seed
corpus that later iterations replay and re-mutate — the classic
generation-plus-feedback loop both Peach-parallel and SPFuzz rely on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro import fastrand
from repro.coverage.collector import CoverageCollector
from repro.errors import TargetHang
from repro.fuzzing.datamodel import Message
from repro.fuzzing.statemodel import StateModel
from repro.fuzzing.strategies import MutationStrategy, RandomFieldStrategy
from repro.targets.base import ProtocolTarget
from repro.targets.faults import SanitizerFault
from repro.telemetry import NULL_TELEMETRY


class DirectTransport:
    """Feeds packets straight into a target instance."""

    def __init__(self, target: ProtocolTarget):
        self.target = target

    def send(self, payload: bytes) -> Optional[bytes]:
        return self.target.handle_packet(payload)

    def reset(self) -> None:
        self.target.reset_session()


#: Former names of the transport, kept for existing importers.
ChannelTransport = BatchedChannelTransport = DirectTransport


@dataclass
class IterationResult:
    """Outcome of one fuzzing iteration."""

    new_sites: frozenset
    fault: Optional[SanitizerFault] = None
    path: List[str] = field(default_factory=list)
    messages_sent: int = 0
    #: Non-empty responses observed (zero while a target is silently dead).
    responses: int = 0
    #: The target stopped responding mid-send (chaos hang / send timeout).
    hung: bool = False

    @property
    def found_new_coverage(self) -> bool:
        return bool(self.new_sites)


class FuzzEngine:
    """Drives fuzzing iterations for one instance.

    Args:
        state_model: The protocol's state model (shared "Pit file").
        transport: Where generated packets go.
        collector: The target's coverage collector (for new-branch
            feedback).
        strategy: Mutation strategy applied to generated messages.
        seed: RNG seed; distinct per parallel instance.
        replay_probability: Chance a send is based on a corpus seed
            instead of a freshly built default message.
        corpus_limit: Maximum retained seeds (FIFO eviction).
        allowed_paths: Optional whitelist of state paths (tuples); used
            by SPFuzz to restrict an instance to its assigned paths.
        telemetry: Optional :class:`repro.telemetry.Telemetry`; defaults
            to the shared no-op instance (near-zero cost).
        labels: Metric labels attached to this engine's series (the
            parallel modes pass ``instance=<index>``).
        outbox_limit: Safety ceiling on queued-but-unsynced seeds; on
            overflow the oldest pending seed is dropped and counted in
            ``sync.seeds_dropped`` (zero on healthy campaigns).
    """

    def __init__(
        self,
        state_model: StateModel,
        transport,
        collector: CoverageCollector,
        strategy: Optional[MutationStrategy] = None,
        seed: int = 0,
        replay_probability: float = 0.35,
        corpus_limit: int = 256,
        allowed_paths: Optional[List[tuple]] = None,
        session_length: int = 8,
        telemetry=None,
        labels: Optional[dict] = None,
        outbox_limit: int = 4096,
    ):
        self.state_model = state_model
        self.transport = transport
        self.collector = collector
        self.strategy = strategy or RandomFieldStrategy()
        self.rng = random.Random(seed)
        self.replay_probability = replay_probability
        self.corpus_limit = corpus_limit
        self.allowed_paths = list(allowed_paths) if allowed_paths else None
        if session_length < 1:
            raise ValueError("session_length must be >= 1")
        if outbox_limit < 1:
            raise ValueError("outbox_limit must be >= 1")
        self.session_length = session_length
        #: state name -> data-model names of its send actions, in order
        #: (non-send actions have no effect on the loop). Lazily built.
        self._send_models = {}
        self.corpus: List[Message] = []
        #: model name -> corpus entries for that model, in corpus order.
        #: Maintained alongside ``corpus`` so replay selection skips the
        #: per-iteration linear scan; eviction pops both in lockstep.
        self._corpus_by_model = {}
        #: Locally discovered seeds awaiting cross-instance broadcast;
        #: drained by :class:`repro.parallel.sync.SeedSynchronizer`. Each
        #: entry is the corpus object itself (seeds are never mutated
        #: once retained), and it stays empty while :attr:`share_seeds`
        #: is off.
        self.sync_outbox: List[Message] = []
        #: Whether :meth:`add_seed` queues seeds for broadcast. The
        #: campaign turns it off for engines of a mode that owns no
        #: synchronizer, whose outboxes nothing would ever drain.
        self.share_seeds = True
        self.outbox_limit = outbox_limit
        self.sync_seeds_dropped = 0
        self.iterations = 0
        self.total_messages = 0
        self.faults_seen = 0
        self.hangs_seen = 0
        tele = telemetry or NULL_TELEMETRY
        labels = dict(labels or {})
        self.telemetry = tele
        #: Whether counter bumps observe anything. The iteration skips
        #: the ~10 no-op counter calls when running without telemetry
        #: (benchmarks, unit tests).
        self._tele_live = tele is not NULL_TELEMETRY
        self._c_execs = tele.counter("engine.execs", **labels)
        self._c_messages = tele.counter("engine.messages", **labels)
        self._c_responses = tele.counter("engine.responses", **labels)
        self._c_new_cov = tele.counter("engine.new_coverage_events", **labels)
        self._c_new_sites = tele.counter("engine.new_sites", **labels)
        self._c_faults = tele.counter("engine.faults", **labels)
        self._c_hangs = tele.counter("engine.hangs", **labels)
        self._c_seeds_local = tele.counter("engine.seeds_discovered", **labels)
        self._c_seeds_received = tele.counter("engine.seeds_received", **labels)
        self._c_strategy = tele.counter(
            "engine.strategy_picks",
            strategy=type(self.strategy).__name__, **labels,
        )
        self._c_sync_dropped = tele.counter("sync.seeds_dropped", **labels)
        self._g_corpus = tele.gauge("engine.corpus_size", **labels)

    # -- corpus ------------------------------------------------------------

    def _retain(self, message: Message) -> Message:
        retained = message.copy()
        self.corpus.append(retained)
        self._corpus_by_model.setdefault(retained.model.name, []).append(retained)
        if len(self.corpus) > self.corpus_limit:
            evicted = self.corpus.pop(0)
            # The globally oldest seed is the oldest of its bucket too.
            del self._corpus_by_model[evicted.model.name][0]
        self._g_corpus.set(len(self.corpus))
        return retained

    def add_seed(self, message: Message) -> None:
        """Add a locally discovered (or externally injected) seed.

        The engine retains one copy of ``message``. That copy joins the
        replay corpus and, when :attr:`share_seeds` is on, the sync
        outbox too, so the synchronizer will eventually broadcast it to
        the other instances exactly once. Seeds arriving *from*
        synchronisation must go through :meth:`receive_seed` instead,
        or they would be rebroadcast forever.
        """
        retained = self._retain(message)
        if self.share_seeds:
            self.sync_outbox.append(retained)
            if len(self.sync_outbox) > self.outbox_limit:
                self.sync_outbox.pop(0)
                self.sync_seeds_dropped += 1
                self._c_sync_dropped.inc()
        self._c_seeds_local.inc()

    def receive_seed(self, message: Message) -> None:
        """Adopt a seed broadcast by another instance (corpus only —
        received seeds are never queued for rebroadcast)."""
        self._retain(message)
        self._c_seeds_received.inc()

    def _base_message(self, model_name: str) -> Message:
        model = self.state_model.data_model(model_name)
        if self.corpus and self.rng.random() < self.replay_probability:
            candidates = self._corpus_by_model.get(model_name)
            if candidates:
                return fastrand.choice(self.rng, candidates).copy()
        return model.build()

    def _choose_path(self) -> List[str]:
        if self.allowed_paths:
            return list(fastrand.choice(self.rng, self.allowed_paths))
        return self.state_model.walk(self.rng)

    # -- main loop -----------------------------------------------------------

    def run_iteration(self) -> IterationResult:
        """Execute one iteration: walk the state model, send messages.

        The send actions of each state are pre-filtered into
        :attr:`_send_models` (recv actions have no effect on the loop),
        attribute lookups are hoisted out of the send loop, and counter
        bumps are skipped when no telemetry sink is attached.
        """
        transport = self.transport
        if self.iterations % self.session_length == 0:
            # Fresh connection every few test cases, as a network fuzzer
            # reconnects between runs.
            transport.reset()
        collector = self.collector
        collector.start_run()
        path = self._choose_path()
        fault: Optional[SanitizerFault] = None
        hung = False
        sent_messages: List[Message] = []
        messages_sent = 0
        responses = 0
        rng = self.rng
        base_message = self._base_message
        strategy_apply = self.strategy.apply
        send = transport.send
        send_models = self._send_models
        sent_append = sent_messages.append
        live = self._tele_live
        strategy_inc = self._c_strategy.inc if live else None
        for state_name in path:
            models = send_models.get(state_name)
            if models is None:
                models = [
                    action.data_model
                    for action in self.state_model.state(state_name).actions
                    if action.kind == "send"
                ]
                send_models[state_name] = models
            for model_name in models:
                base = base_message(model_name)
                message = strategy_apply(base, rng)
                if live:
                    strategy_inc()
                payload = message.encode()
                sent_append(message)
                messages_sent += 1
                try:
                    reply = send(payload)
                except SanitizerFault as caught:
                    fault = caught
                    break
                except TargetHang:
                    hung = True
                    break
                if reply:
                    responses += 1
            if fault or hung:
                break
        new_sites = frozenset(collector.run_new)
        if new_sites and not fault and not hung:
            if live:
                self._c_new_cov.inc()
                self._c_new_sites.inc(len(new_sites))
            for message in sent_messages:
                self.add_seed(message)
        if fault:
            self.faults_seen += 1
            self._c_faults.inc()
            transport.reset()
        if hung:
            self.hangs_seen += 1
            self._c_hangs.inc()
            transport.reset()
        self.iterations += 1
        self.total_messages += messages_sent
        if live:
            self._c_execs.inc()
            self._c_messages.inc(messages_sent)
            self._c_responses.inc(responses)
        return IterationResult(
            new_sites=new_sites,
            fault=fault,
            path=path,
            messages_sent=messages_sent,
            responses=responses,
            hung=hung,
        )
