"""Tests for seed corpus serialisation."""

import pytest

from repro.fuzzing.corpus import (
    dump_corpus,
    load_corpus,
    load_corpus_file,
    message_from_dict,
    message_to_dict,
    save_corpus_file,
)
from repro.targets.mqtt.pit import state_model


@pytest.fixture(scope="module")
def pit():
    return state_model()


class TestRoundTrip:
    def test_default_message_round_trips(self, pit):
        original = pit.data_model("Connect").build()
        data = message_to_dict(original)
        restored = message_from_dict(pit, data)
        assert restored.encode() == original.encode()

    def test_mutated_values_survive(self, pit):
        message = pit.data_model("Publish").build()
        message.set("body.topic", "custom/topic")
        message.set("body.payload", b"\x00\xff\x80binary")
        restored = message_from_dict(pit, message_to_dict(message))
        assert restored.get("body.topic") == "custom/topic"
        assert restored.get("body.payload") == b"\x00\xff\x80binary"

    def test_numeric_values_survive(self, pit):
        message = pit.data_model("Publish2").build()
        message.set("body.mid", 4242)
        restored = message_from_dict(pit, message_to_dict(message))
        assert restored.get("body.mid") == 4242

    def test_corpus_of_many_models(self, pit):
        corpus = [pit.data_model(name).build()
                  for name in ("Connect", "Publish", "Subscribe", "Ping")]
        restored = load_corpus(pit, dump_corpus(corpus))
        assert [m.model.name for m in restored] == \
            ["Connect", "Publish", "Subscribe", "Ping"]
        for original, again in zip(corpus, restored):
            assert again.encode() == original.encode()

    def test_unknown_model_dropped(self, pit):
        text = dump_corpus([pit.data_model("Ping").build()])
        text = text.replace("Ping", "Gone")
        assert load_corpus(pit, text) == []

    def test_unknown_paths_skipped(self, pit):
        data = message_to_dict(pit.data_model("Ping").build())
        data["values"]["no.such.path"] = {"t": "int", "v": 3}
        restored = message_from_dict(pit, data)
        assert restored.model.name == "Ping"


class TestFiles:
    def test_file_round_trip(self, pit, tmp_path):
        corpus = [pit.data_model("Connect").build()]
        path = str(tmp_path / "corpus.json")
        save_corpus_file(corpus, path)
        restored = load_corpus_file(pit, path)
        assert len(restored) == 1
        assert restored[0].encode() == corpus[0].encode()


class TestEngineIntegration:
    def test_engine_corpus_persist_resume(self, pit, tmp_path):
        from repro.fuzzing.engine import DirectTransport, FuzzEngine
        from repro.targets.mqtt.server import MosquittoTarget

        target = MosquittoTarget()
        target.startup({})
        engine = FuzzEngine(pit, DirectTransport(target), target.cov, seed=1)
        for _ in range(100):
            engine.run_iteration()
        assert engine.corpus
        path = str(tmp_path / "seeds.json")
        save_corpus_file(engine.corpus, path)

        fresh_target = MosquittoTarget()
        fresh_target.startup({})
        resumed = FuzzEngine(pit, DirectTransport(fresh_target),
                             fresh_target.cov, seed=2)
        for seed in load_corpus_file(pit, path):
            resumed.add_seed(seed)
        assert len(resumed.corpus) == len(engine.corpus)
