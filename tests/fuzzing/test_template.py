"""Model-template tests: compiled messages must match the model tree.

:mod:`repro.fuzzing.template` compiles a model into dict-backed
defaults, per-selection-state generated encoders and an element index,
and ``Message`` runs on nothing else. The reference here is
``_reference_encode``: the recursive tree walk that rendered messages
before every model compiled, kept in this module only. These tests
drive messages through their operations and require the observables
the walk gives for the same values and selections, plus the template
machinery's own contracts (caching, build-time rejection, pickling).
"""

import gc
import pickle
import random
import struct
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import FuzzingError
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
from repro.fuzzing.template import ModelTemplate, template_for
from repro.targets import get_target, target_names


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


# -- the reference: a recursive walk of the model tree ------------------------


def _join(prefix, name):
    return name if not prefix else prefix + "." + name


def _reference_element(model, path):
    """The element ``path`` names, found by descending the tree."""
    element = model.root
    for part in path.split(".") if path else []:
        children = (element.children if isinstance(element, Block)
                    else element.options)
        (element,) = [child for child in children if child.name == part]
    return element


def _reference_walk(message):
    """``(fields, active)``: the leaf ``(path, value)`` pairs in document
    order and every element path the selections make active."""
    fields, active = [], []

    def walk(element, path):
        active.append(path)
        if isinstance(element, Block):
            for child in element.children:
                walk(child, _join(path, child.name))
        elif isinstance(element, Choice):
            chosen = element.option(
                message._selections.get(path, element.default_value()))
            walk(chosen, _join(path, chosen.name))
        else:
            fields.append((path, message._values.get(path)))

    walk(message.model.root, "")
    return fields, active


def _reference_encode(message, path=""):
    """The bytes of the element at ``path`` by recursive descent, each
    computed size measuring a fresh encoding of its span."""
    element = _reference_element(message.model, path)
    if isinstance(element, Block):
        return b"".join(_reference_encode(message, _join(path, child.name))
                        for child in element.children)
    if isinstance(element, Choice):
        selected = message._selections.get(path, element.default_value())
        return _reference_encode(message, _join(path, selected))
    value = message._values.get(path, element.default_value())
    if isinstance(element, Size):
        if value is None:
            value = len(_reference_encode(message, element.of)) + element.adjust
        element = Number(element.name, bits=element.bits, endian=element.endian)
    if isinstance(element, Number):
        code = {8: "b", 16: "h", 32: "i", 64: "q"}[element.bits]
        value = int(value) & ((1 << element.bits) - 1)
        if element.signed and value >= 1 << (element.bits - 1):
            value -= 1 << element.bits
        return struct.pack((">" if element.endian == "big" else "<")
                           + (code if element.signed else code.upper()), value)
    if isinstance(element, Str):
        if not isinstance(value, bytes):
            value = str(value).encode("utf-8", errors="replace")
        return value[: element.max_length]
    return bytes(value)[: element.max_length]


def _assert_reference_parity(message):
    """The walk's fields and encoding, and its ``encode_path`` for every
    active path; an inactive path is a typed error."""
    fields, active = _reference_walk(message)
    assert message.fields() == fields
    assert message.encode() == _reference_encode(message)
    for path in message._tpl.elements:
        if path in active:
            assert (message.encode_path(path)
                    == _reference_encode(message, path)), path
        else:
            with pytest.raises(FuzzingError):
                message.encode_path(path)


class TestMessageParity:
    def test_defaults_and_fields(self):
        message = Message(_rich_model())
        assert message.fields() == _reference_walk(message)[0]
        assert message.choice_paths() == ["kind"]
        assert message.encode() == _reference_encode(message)
        assert message.encode() == (b"\x00\x07\x03\x00\x05host\x00\x01xyz")

    def test_element_at_every_field(self):
        model = _rich_model()
        message = Message(model)
        for path in message._tpl.elements:
            assert message.element_at(path) is _reference_element(model, path)
        assert message.element_at("") is model.root
        with pytest.raises(FuzzingError):
            message.element_at("no.such.path")

    def test_set_and_encode(self):
        message = Message(_rich_model())
        message.set("id", 0xBEEF)
        message.set("body.payload", b"longer-payload")
        assert message.encode() == _reference_encode(message)
        assert message.get("id") == 0xBEEF
        _assert_reference_parity(message)

    def test_select_switches_options(self):
        message = Message(_rich_model())
        message.select("kind", "answer")
        _assert_reference_parity(message)
        assert message.selection("kind") == "answer"
        message.set("kind.answer.ttl", 1)
        message.select("kind", "query")
        _assert_reference_parity(message)

    def test_copy_is_deep_enough(self):
        message = Message(_rich_model())
        clone = message.copy()
        clone.set("id", 1)
        clone.select("kind", "answer")
        assert message.get("id") == 7
        assert message.selection("kind") == "query"
        assert clone._tpl is message._tpl

    def test_pickle_round_trip_re_resolves_template(self):
        message = Message(_rich_model())
        message.set("id", 99)
        restored = pickle.loads(pickle.dumps(message))
        assert restored._tpl is not None
        assert restored.encode() == message.encode() == _reference_encode(message)
        assert restored.fields() == message.fields()

    def test_pickle_payload_carries_no_template(self):
        state = Message(_rich_model()).__getstate__()
        assert "_tpl" not in state
        assert "_state" not in state

    @pytest.mark.parametrize("target", target_names())
    def test_all_pit_models_encode_identically(self, target):
        state_model = get_target(target).state_model()
        rng = random.Random(42)
        for data_model in state_model.data_models():
            message = Message(data_model)
            _assert_reference_parity(message)
            # A few random writes keep matching the walk.
            paths = [path for path, _ in message.fields()]
            for path in rng.sample(paths, min(3, len(paths))):
                element = message.element_at(path)
                if isinstance(element, Number):
                    value = rng.randint(element.min_value, element.max_value)
                elif isinstance(element, Str):
                    value = "mutated"
                elif isinstance(element, Blob):
                    value = b"\x00\x01"
                else:
                    continue
                message.set(path, value)
            _assert_reference_parity(message)


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
        assert message.encode() == _reference_encode(message)
        assert message.encode() != pristine
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
        message = Message(_rich_model())
        state = message._tpl.state_for(message._selections)
        expected = ([path for path, _ in _reference_walk(message)[0]]
                    + message.choice_paths())
        assert list(state.target_paths) == expected

    def test_unknown_leaf_kind_is_untemplatable(self):
        class Weird(DataElement):
            def default_value(self):
                return None

        class WideNumber(Number):
            """A subclass may encode differently, so it is refused too."""

        with pytest.raises(FuzzingError, match="Weird"):
            DataModel("weird", [Weird("w")])
        with pytest.raises(FuzzingError, match="WideNumber"):
            DataModel("wide", [Block("b", [WideNumber("n", bits=16)])])

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


def _parity_models():
    models = [_rich_model()]
    for target in target_names():
        models.extend(get_target(target).state_model().data_models())
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
        message = Message(_PARITY_MODELS[model_index])
        for op in ops:
            if op[0] == "strategy":
                message = RandomFieldStrategy(valid_ratio=0).apply(
                    message, random.Random(op[1]))
            elif op[0] == "select":
                choices = message.choice_paths()
                if not choices:
                    continue
                path = choices[op[1] % len(choices)]
                options = message.element_at(path).options
                message.select(path, options[op[2] % len(options)].name)
            else:
                leaves = [path for path, _ in message.fields()]
                sizes = [path for path in leaves
                         if isinstance(message.element_at(path), Size)]
                pool = sizes if op[0] == "pin" else leaves
                if not pool:
                    continue
                path = pool[op[1] % len(pool)]
                value = (op[2] if op[0] == "pin"
                         else _value_for(message.element_at(path), op[2]))
                message.set(path, value)
        _assert_reference_parity(message)

    def test_pit_size_relations_compile(self):
        """Every shipped model compiles, and Message.encode_path slices
        the encoder's parts for every active path."""
        for model in _PARITY_MODELS:
            message = Message(model)
            spans = message._active_state().spans
            assert set(spans) == set(_reference_walk(message)[1]), model.name

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
        message = Message(model)
        _assert_reference_parity(message)
        assert message.encode() == (b"\x10\x11\x00\x04MQTT\x05\x00client"
                                    b"\x00\x3c")
        message.set("body.proto", "MQIsdp")
        message.set("body.inner.cid", b"x" * 300)
        message.set("body.proto_len", 99)
        _assert_reference_parity(message)

    def test_size_of_unselected_option(self):
        options = Choice("kind", [
            Block("a", [Str("name", default="host")]),
            Block("b", [Blob("data", default=b"\x01\x02\x03")]),
        ])
        # alt_len could be active while the option it measures is not.
        with pytest.raises(FuzzingError, match="alt_len"):
            DataModel("opt", [Size("alt_len", of="kind.b", bits=16),
                              Size("kind_len", of="kind", bits=8), options])
        # A size over the whole choice, or one inside the option it
        # measures, is active only with its span.
        model = DataModel("opt", [
            Size("kind_len", of="kind", bits=8),
            Choice("kind", [
                Block("a", [Str("name", default="host")]),
                Block("b", [Size("data_len", of="kind.b.data", bits=8),
                            Blob("data", default=b"\x01\x02\x03")]),
            ]),
        ])
        message = Message(model)
        _assert_reference_parity(message)
        assert message.encode() == b"\x04host"
        message.select("kind", "b")
        message.set("kind.b.data", b"longer")
        _assert_reference_parity(message)
        assert message.encode() == b"\x07\x06longer"
        message.select("kind", "a")
        _assert_reference_parity(message)

    def test_size_inside_its_own_span(self):
        with pytest.raises(FuzzingError, match="inside"):
            DataModel("self", [
                Block("body", [Size("len", of="body", bits=16), Str("s")]),
            ])
        with pytest.raises(FuzzingError, match="inside"):
            DataModel("whole", [Size("len", of="", bits=8), Str("s")])

    def test_mutually_enclosing_spans(self):
        with pytest.raises(FuzzingError, match="each other"):
            DataModel("cycle", [
                Block("a", [Size("len_b", of="b", bits=8),
                            Str("s", default="x")]),
                Block("b", [Size("len_a", of="a", bits=8),
                            Str("t", default="y")]),
            ])

    def test_invalid_size_path(self):
        with pytest.raises(FuzzingError, match="no.such"):
            DataModel("bad", [
                Size("len", of="no.such", bits=16),
                Size("ok", of="body", bits=8),
                Block("body", [Str("s", default="abc")]),
            ])

    @pytest.mark.parametrize("spec", [{"bits": 12}, {"endian": "middle"}])
    def test_size_width_is_checked(self, spec):
        with pytest.raises(FuzzingError):
            DataModel("odd", [Size("len", of="body", **spec), Blob("body")])

    def test_unencodable_values_raise(self):
        model = DataModel("badvalues", [
            Size("len", of="body", bits=8),
            Number("n", bits=8),
            Block("body", [Number("m", bits=8), Blob("b")]),
        ])
        message = Message(model)
        message.set("n", "not-a-number")
        message.set("body.m", "also-not")
        # Leaves encode in document order, computed sizes last, so n
        # fails first; the walk reaches body.m through len's span.
        with pytest.raises(ValueError, match="not-a-number"):
            message.encode()
        with pytest.raises(ValueError, match="also-not"):
            _reference_encode(message)
        message.set("n", 1)
        message.set("body.m", 1)
        message.set("body.b", "text")
        with pytest.raises(TypeError):
            message.encode()
        with pytest.raises(TypeError):
            _reference_encode(message)
        message.set("body.b", b"text")
        _assert_reference_parity(message)
        assert message.encode() == b"\x05\x01\x01text"
