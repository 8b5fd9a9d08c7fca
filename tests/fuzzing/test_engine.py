"""Tests for the single-instance fuzzing engine."""

import pytest

from repro.fuzzing.datamodel import Blob, DataModel
from repro.fuzzing.engine import (
    BatchedChannelTransport,
    ChannelTransport,
    DirectTransport,
    FuzzEngine,
)
from repro.fuzzing.statemodel import Action, State, StateModel
from repro.fuzzing.strategies import RandomFieldStrategy
from repro.targets.base import ProtocolTarget
from repro.targets.faults import FaultKind, SanitizerFault


class _ToyTarget(ProtocolTarget):
    """Counts bytes; crashes on payloads starting with 0xFF."""

    NAME = "toy"
    PROTOCOL = "TOY"
    PORT = 9999

    @classmethod
    def config_sources(cls):
        from repro.core.extraction import ConfigSources
        return ConfigSources()

    @classmethod
    def default_config(cls):
        return {}

    def _startup_impl(self):
        self.cov.hit("startup")

    def reset_session(self):
        self.resets = getattr(self, "resets", 0) + 1

    def handle_packet(self, data):
        self.cov.hit("len.%d" % min(len(data), 8))
        if data[:1] and data[0] >= 0x80:
            raise SanitizerFault(FaultKind.SEGV, "toy_parse")
        return b"ok"


def _state_model():
    states = [State("s", [Action("send", "Msg")])]
    return StateModel("toy", "s", states, [DataModel("Msg", [Blob("b", default=b"abc")])])


def _engine(target, **kwargs):
    kwargs.setdefault("strategy", RandomFieldStrategy(valid_ratio=0.5))
    return FuzzEngine(_state_model(), DirectTransport(target), target.cov, **kwargs)


@pytest.fixture
def target():
    toy = _ToyTarget()
    toy.startup({})
    return toy


class TestEngine:
    def test_iteration_sends_messages(self, target):
        engine = _engine(target, seed=1)
        result = engine.run_iteration()
        assert result.messages_sent == 1
        assert engine.iterations == 1

    def test_new_coverage_reported_once(self, target):
        engine = _engine(target, seed=1)
        first = engine.run_iteration()
        assert first.found_new_coverage
        # Valid default message resends hit the same site.
        repeats = [engine.run_iteration() for _ in range(5)]
        assert any(not r.found_new_coverage for r in repeats)

    def test_fault_captured_and_session_reset(self, target):
        engine = _engine(target, seed=1)
        engine.corpus.clear()
        fault_seen = None
        for _ in range(300):
            result = engine.run_iteration()
            if result.fault:
                fault_seen = result.fault
                break
        assert fault_seen is not None
        assert fault_seen.function == "toy_parse"
        assert engine.faults_seen >= 1

    def test_corpus_grows_on_new_coverage(self, target):
        engine = _engine(target, seed=2)
        for _ in range(50):
            engine.run_iteration()
        assert engine.corpus

    def test_corpus_bounded(self, target):
        engine = _engine(target, seed=3, corpus_limit=5)
        for _ in range(300):
            engine.run_iteration()
        assert len(engine.corpus) <= 5

    def test_add_seed_copies(self, target):
        engine = _engine(target, seed=4)
        message = _state_model().data_model("Msg").build()
        engine.add_seed(message)
        message.set("b", b"changed")
        assert engine.corpus[0].get("b") == b"abc"

    def test_session_reset_cadence(self, target):
        engine = _engine(target, seed=5, session_length=3)
        for _ in range(9):
            engine.run_iteration()
        # One reset at iteration 0, then every 3 iterations (faults add more).
        assert target.resets >= 3

    def test_invalid_session_length(self, target):
        with pytest.raises(ValueError):
            _engine(target, session_length=0)

    def test_allowed_paths_respected(self, target):
        engine = _engine(target, seed=6, allowed_paths=[("s",)])
        result = engine.run_iteration()
        assert result.path == ["s"]

    def test_total_messages_accumulates(self, target):
        engine = _engine(target, seed=7)
        for _ in range(4):
            engine.run_iteration()
        assert engine.total_messages == 4


class TestDirectTransport:
    def test_returns_the_target_reply(self, target):
        assert DirectTransport(target).send(b"abc") == b"ok"
        assert "toy:len.3" in target.cov.total

    def test_faults_propagate(self, target):
        transport = DirectTransport(target)
        with pytest.raises(SanitizerFault):
            transport.send(b"\x80\x00")

    def test_reset_delegates_to_target(self, target):
        transport = DirectTransport(target)
        before = target.resets
        transport.reset()
        assert target.resets == before + 1

    def test_former_transport_names_alias_it(self):
        assert ChannelTransport is DirectTransport
        assert BatchedChannelTransport is DirectTransport
