"""Model-template tests: templated messages must mirror the tree walk.

:mod:`repro.fuzzing.template` precompiles a model into dict-backed
defaults, per-selection-state generated encoders and an element index;
``Message`` consults the template whenever its model compiles, and
walks the model tree otherwise. These tests drive templated messages
and messages built with ``template_for`` patched to return ``None``
(the path untemplatable models take) through the same operations and
require identical observables, plus the template machinery's own
contracts (caching, fallback, pickling).
"""

import gc
import pickle
import random
import weakref
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import FuzzingError
from repro.fuzzing import datamodel
from repro.fuzzing.datamodel import (
    Blob,
    Block,
    Choice,
    DataElement,
    DataModel,
    Message,
    Number,
    Size,
    Str,
)
from repro.fuzzing.strategies import RandomFieldStrategy
from repro.fuzzing.template import (
    ModelTemplate,
    UntemplatableModel,
    template_for,
)
from repro.pits import pit_registry


def _rich_model():
    """A model exercising every leaf kind, nesting, choices and sizes."""
    return DataModel("rich", [
        Number("id", bits=16, default=7),
        Block("header", [
            Number("flags", bits=8, default=3),
            Size("length", of="body", bits=16, adjust=2),
        ]),
        Choice("kind", [
            Block("query", [Str("name", default="host"),
                            Number("qtype", bits=16, default=1)]),
            Block("answer", [Blob("rdata", default=b"\x7f\x00\x00\x01"),
                             Number("ttl", bits=32, default=300)]),
        ]),
        Block("body", [Blob("payload", default=b"xyz")]),
    ])


@contextmanager
def _untemplated():
    """Messages built inside this block get no template and walk their
    model tree, exactly as messages of untemplatable models do."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datamodel, "_template_for", lambda model: None)
        yield


def _messages(model):
    """A (templated, tree-walking) message pair for the same model."""
    fast = Message(model)
    with _untemplated():
        slow = Message(model)
    assert fast._tpl is not None, "fast message did not get a template"
    assert slow._tpl is None, "slow message unexpectedly templated"
    return fast, slow


class TestMessageParity:
    def test_defaults_and_fields(self):
        fast, slow = _messages(_rich_model())
        assert fast.fields() == slow.fields()
        assert fast.choice_paths() == slow.choice_paths()
        assert fast.encode() == slow.encode()

    def test_element_at_every_field(self):
        fast, slow = _messages(_rich_model())
        for path, _ in slow.fields():
            assert fast.element_at(path) is slow.element_at(path)
        assert fast.element_at("") is slow.element_at("")
        with pytest.raises(Exception):
            fast.element_at("no.such.path")

    def test_set_and_encode(self):
        fast, slow = _messages(_rich_model())
        for message in (fast, slow):
            message.set("id", 0xBEEF)
            message.set("body.payload", b"longer-payload")
        assert fast.encode() == slow.encode()
        assert fast.get("id") == slow.get("id") == 0xBEEF

    def test_select_switches_options(self):
        fast, slow = _messages(_rich_model())
        for message in (fast, slow):
            message.select("kind", "answer")
        assert fast.fields() == slow.fields()
        assert fast.encode() == slow.encode()
        assert fast.selection("kind") == slow.selection("kind") == "answer"
        for message in (fast, slow):
            message.set("kind.answer.ttl", 1)
            message.select("kind", "query")
        assert fast.encode() == slow.encode()

    def test_copy_is_deep_enough(self):
        fast, _ = _messages(_rich_model())
        clone = fast.copy()
        clone.set("id", 1)
        clone.select("kind", "answer")
        assert fast.get("id") == 7
        assert fast.selection("kind") == "query"
        assert clone._tpl is fast._tpl

    def test_pickle_round_trip_re_resolves_template(self):
        fast, slow = _messages(_rich_model())
        fast.set("id", 99)
        slow.set("id", 99)
        restored = pickle.loads(pickle.dumps(fast))
        assert restored._tpl is not None
        assert restored.encode() == fast.encode() == slow.encode()
        assert restored.fields() == fast.fields()

    def test_pickle_payload_carries_no_template(self):
        fast, _ = _messages(_rich_model())
        state = fast.__getstate__()
        assert "_tpl" not in state
        assert "_state" not in state

    @pytest.mark.parametrize("target", sorted(pit_registry()))
    def test_all_pit_models_encode_identically(self, target):
        state_model = pit_registry()[target]()
        rng = random.Random(42)
        for data_model in state_model.data_models():
            fast, slow = _messages(data_model)
            assert fast.encode() == slow.encode()
            assert fast.fields() == slow.fields()
            # A few random writes stay in lockstep.
            paths = [path for path, _ in slow.fields()]
            for path in rng.sample(paths, min(3, len(paths))):
                element = slow.element_at(path)
                if isinstance(element, Number):
                    value = rng.randint(element.min_value, element.max_value)
                elif isinstance(element, Str):
                    value = "mutated"
                elif isinstance(element, Blob):
                    value = b"\x00\x01"
                else:
                    continue
                fast.set(path, value)
                slow.set(path, value)
            assert fast.encode() == slow.encode()


class TestCleanEncodeCache:
    def test_clean_messages_share_default_bytes(self):
        model = _rich_model()
        first = Message(model)
        second = Message(model)
        assert first.encode() == second.encode()
        # Identity: the second encode is served from the state cache.
        assert first.encode() is second.encode()

    def test_write_invalidates_cleanliness(self):
        model = _rich_model()
        message = Message(model)
        default = message.encode()
        message.set("id", 8)
        assert message.encode() != default
        # A fresh message still gets the pristine bytes.
        assert Message(model).encode() == default

    def test_select_invalidates_cleanliness(self):
        model = _rich_model()
        message = Message(model)
        pristine = message.encode()
        message.select("kind", "answer")
        with _untemplated():
            reference = Message(model)
        reference.select("kind", "answer")
        assert message.encode() == reference.encode()
        assert Message(model).encode() == pristine


class TestTemplateMachinery:
    def test_template_for_is_cached_per_model(self):
        model = _rich_model()
        assert template_for(model) is template_for(model)

    def test_state_for_caches_by_selection(self):
        template = ModelTemplate(_rich_model())
        default = template.state_for({"kind": "query"})
        assert template.state_for({"kind": "query"}) is default
        other = template.state_for({"kind": "answer"})
        assert other is not default
        assert set(default.field_paths) != set(other.field_paths)

    def test_target_paths_match_strategy_view(self):
        """target_paths must equal fields() + choice_paths() order-for-order."""
        model = _rich_model()
        fast, slow = _messages(model)
        state = fast._tpl.state_for(fast._selections)
        expected = [path for path, _ in slow.fields()] + slow.choice_paths()
        assert list(state.target_paths) == expected

    def test_unknown_leaf_kind_is_untemplatable(self):
        class Weird(DataElement):
            def default_value(self):
                return None

            def encode_value(self, value, message):
                return b""

        model = DataModel("weird", [Weird("w")])
        with pytest.raises(UntemplatableModel):
            ModelTemplate(model)
        assert template_for(model) is None
        message = Message(model)  # falls back to the tree walk
        assert message._tpl is None
        assert message.encode() == b""

    def test_template_does_not_keep_its_model_alive(self):
        model = _rich_model()
        assert template_for(model) is not None
        message = Message(model)
        message.set("id", 1)
        message.encode()
        ref = weakref.ref(model)
        del model, message
        gc.collect()
        assert ref() is None, "the template cache keeps its model alive"


# -- size relations ------------------------------------------------------------


def _outcome(call):
    """``("ok", bytes)`` or ``("error", exception type, message)``."""
    try:
        return ("ok", call())
    except RecursionError:
        return ("error", RecursionError, "")
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return ("error", type(exc), str(exc))


def _assert_size_parity(fast, slow):
    """Same encoding, and the same ``encode_path`` for every path."""
    assert fast.fields() == slow.fields()
    assert _outcome(fast.encode) == _outcome(slow.encode)
    for path in fast._tpl.elements:
        assert (_outcome(lambda: fast.encode_path(path))
                == _outcome(lambda: slow.encode_path(path))), path


def _parity_models():
    models = [_rich_model()]
    for target in sorted(pit_registry()):
        models.extend(pit_registry()[target]().data_models())
    return models


_PARITY_MODELS = _parity_models()

_OPS = st.lists(st.one_of(
    st.tuples(st.just("strategy"), st.integers(0, 2**32)),
    st.tuples(st.just("select"), st.integers(0), st.integers(0)),
    st.tuples(st.just("set"), st.integers(0), st.integers(0, 2**32)),
    st.tuples(st.just("pin"), st.integers(0),
              st.one_of(st.none(), st.integers(0, 70000))),
), max_size=8)


def _value_for(element, seed):
    rng = random.Random(seed)
    if isinstance(element, Size):
        # Like a pin: no program path writes a non-integer into a size.
        return rng.randrange(1 << element.bits)
    if isinstance(element, Number):
        return rng.randint(element.min_value - 2, element.max_value + 2)
    if isinstance(element, Str):
        return "".join(chr(rng.randrange(1, 300))
                       for _ in range(rng.randrange(40)))
    return bytes(rng.randrange(256) for _ in range(rng.randrange(40)))


class TestSizeParity:
    @settings(max_examples=150, deadline=None)
    @given(model_index=st.integers(0, len(_PARITY_MODELS) - 1), ops=_OPS)
    @example(model_index=50, ops=[("set", 945692, 0), ("strategy", 76)])
    def test_random_mutations_keep_size_parity(self, model_index, ops):
        fast, slow = _messages(_PARITY_MODELS[model_index])
        for op in ops:
            if op[0] == "strategy":
                # The templated message takes the strategy's templated
                # body, the other its generic one; the draws match.
                fast = RandomFieldStrategy(valid_ratio=0).apply(
                    fast, random.Random(op[1]))
                slow = RandomFieldStrategy(valid_ratio=0).apply(
                    slow, random.Random(op[1]))
            elif op[0] == "select":
                choices = slow.choice_paths()
                if not choices:
                    continue
                path = choices[op[1] % len(choices)]
                options = slow.element_at(path).options
                name = options[op[2] % len(options)].name
                fast.select(path, name)
                slow.select(path, name)
            else:
                leaves = [path for path, _ in slow.fields()]
                sizes = [path for path in leaves
                         if isinstance(slow.element_at(path), Size)]
                pool = sizes if op[0] == "pin" else leaves
                if not pool:
                    continue
                path = pool[op[1] % len(pool)]
                value = (op[2] if op[0] == "pin"
                         else _value_for(slow.element_at(path), op[2]))
                fast.set(path, value)
                slow.set(path, value)
        _assert_size_parity(fast, slow)

    def test_pit_size_relations_compile(self):
        """Every size in the shipped pits is computed in the encoder
        itself, so Message.encode_path can slice its parts."""
        for model in _PARITY_MODELS:
            fast, _ = _messages(model)
            assert fast._active_state().spans is not None, model.name

    def test_nested_sizes(self):
        model = DataModel("nested", [
            Number("header", bits=8, default=0x10),
            Size("remaining", of="body", bits=8, adjust=1),
            Block("body", [
                Size("proto_len", of="body.proto", bits=16),
                Str("proto", default="MQTT"),
                Block("inner", [
                    Size("cid_len", of="body.inner.cid", bits=16,
                         endian="little", adjust=-1),
                    Blob("cid", default=b"client"),
                ]),
                Number("keepalive", bits=16, default=60),
            ]),
        ])
        fast, slow = _messages(model)
        assert fast._active_state().spans is not None
        _assert_size_parity(fast, slow)
        assert fast.encode() == (b"\x10\x11\x00\x04MQTT\x05\x00client"
                                 b"\x00\x3c")
        for message in (fast, slow):
            message.set("body.proto", "MQIsdp")
            message.set("body.inner.cid", b"x" * 300)
            message.set("body.proto_len", 99)
        _assert_size_parity(fast, slow)

    def test_size_of_unselected_option(self):
        model = DataModel("opt", [
            Size("alt_len", of="kind.b", bits=16),
            Size("kind_len", of="kind", bits=8),
            Choice("kind", [
                Block("a", [Str("name", default="host")]),
                Block("b", [Blob("data", default=b"\x01\x02\x03")]),
            ]),
        ])
        fast, slow = _messages(model)
        # alt_len measures an inactive option: it keeps the encode_path
        # call, so the state cannot be sliced.
        assert fast._active_state().spans is None
        _assert_size_parity(fast, slow)
        for message in (fast, slow):
            message.select("kind", "b")
            message.set("kind.b.data", b"longer")
        assert fast._active_state().spans is not None
        _assert_size_parity(fast, slow)
        for message in (fast, slow):
            message.select("kind", "a")
        _assert_size_parity(fast, slow)

    def test_size_inside_its_own_span(self):
        model = DataModel("self", [
            Block("body", [Size("len", of="body", bits=16), Str("s")]),
        ])
        fast, slow = _messages(model)
        with pytest.raises(RecursionError):
            slow.encode()
        with pytest.raises(RecursionError):
            fast.encode()
        for message in (fast, slow):
            message.set("body.len", 3)
        _assert_size_parity(fast, slow)

    def test_mutually_enclosing_spans(self):
        model = DataModel("cycle", [
            Block("a", [Size("len_b", of="b", bits=8), Str("s", default="x")]),
            Block("b", [Size("len_a", of="a", bits=8), Str("t", default="y")]),
        ])
        fast, slow = _messages(model)
        with pytest.raises(RecursionError):
            slow.encode()
        with pytest.raises(RecursionError):
            fast.encode()
        # Pinning one side breaks the cycle on both paths alike.
        for message in (fast, slow):
            message.set("b.len_a", 7)
        _assert_size_parity(fast, slow)
        assert fast.encode() == b"\x02x\x07y"

    def test_invalid_size_path(self):
        model = DataModel("bad", [
            Size("len", of="no.such", bits=16),
            Size("ok", of="body", bits=8),
            Block("body", [Str("s", default="abc")]),
        ])
        fast, slow = _messages(model)
        with pytest.raises(FuzzingError) as slow_error:
            slow.encode()
        with pytest.raises(FuzzingError) as fast_error:
            fast.encode()
        assert str(fast_error.value) == str(slow_error.value)
        _assert_size_parity(fast, slow)

    def test_unencodable_values_raise_the_walks_error(self):
        model = DataModel("badvalues", [
            Size("len", of="body", bits=8),
            Number("n", bits=8),
            Block("body", [Number("m", bits=8), Blob("b")]),
        ])
        fast, slow = _messages(model)
        for message in (fast, slow):
            message.set("n", "not-a-number")
            message.set("body.m", "also-not")
        # The walk reaches body.m through len's span before n.
        with pytest.raises(ValueError, match="also-not"):
            slow.encode()
        _assert_size_parity(fast, slow)
        for message in (fast, slow):
            message.set("body.m", 1)
            message.set("body.b", "text")
        _assert_size_parity(fast, slow)
