"""Property-based tests on the data-model encoding invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzzing.datamodel import Blob, DataModel, Number, Size
from repro.fuzzing.mutators import DEFAULT_MUTATORS, mutators_for
from repro.fuzzing.strategies import RandomFieldStrategy
from repro.targets import get_target


class TestNumberEncoding:
    @given(st.integers(min_value=0, max_value=0xFFFF))
    def test_u16_round_trips(self, value):
        model = DataModel("m", [Number("n", bits=16)])
        message = model.build()
        message.set("n", value)
        assert int.from_bytes(message.encode(), "big") == value

    @given(st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1))
    def test_signed_32_round_trips(self, value):
        model = DataModel("m", [Number("n", bits=32, signed=True)])
        message = model.build()
        message.set("n", value)
        assert int.from_bytes(message.encode(), "big", signed=True) == value

    @given(st.integers())
    def test_any_integer_encodes_to_fixed_width(self, value):
        model = DataModel("m", [Number("n", bits=8)])
        message = model.build()
        message.set("n", value)
        assert len(message.encode()) == 1


class TestSizeRelation:
    @given(st.binary(max_size=200))
    def test_size_always_matches_payload(self, payload):
        model = DataModel("m", [Size("len", of="body", bits=16),
                                Blob("body", default=b"")])
        message = model.build()
        message.set("body", payload)
        encoded = message.encode()
        assert int.from_bytes(encoded[:2], "big") == len(payload)

    @given(st.binary(max_size=64), st.integers(min_value=0, max_value=0xFFFF))
    def test_pinned_size_overrides_relation(self, payload, pinned):
        model = DataModel("m", [Size("len", of="body", bits=16),
                                Blob("body", default=b"")])
        message = model.build()
        message.set("body", payload)
        message.set("len", pinned)
        assert int.from_bytes(message.encode()[:2], "big") == pinned


class TestStrategyInvariants:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_mutated_messages_always_encode(self, seed):
        strategy = RandomFieldStrategy(valid_ratio=0.0)
        rng = random.Random(seed)
        for model in get_target("mosquitto").state_model().data_models():
            mutated = strategy.apply(model.build(), rng)
            assert isinstance(mutated.encode(), bytes)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_mutation_never_corrupts_original(self, seed):
        strategy = RandomFieldStrategy(valid_ratio=0.0)
        rng = random.Random(seed)
        model = get_target("dnsmasq").state_model().data_model("QueryA")
        original = model.build()
        reference = original.encode()
        strategy.apply(original, rng)
        assert original.encode() == reference


class TestMutatorApplicability:
    @given(st.sampled_from(["mosquitto", "libcoap", "cyclonedds",
                            "openssl", "qpid", "dnsmasq"]))
    def test_every_pit_leaf_has_a_mutator(self, name):
        model = get_target(name).state_model()
        for data_model in model.data_models():
            message = data_model.build()
            for path, _ in message.fields():
                element = message.element_at(path)
                assert mutators_for(element, DEFAULT_MUTATORS), (name, path)
