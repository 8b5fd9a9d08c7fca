"""Tests for data model elements, messages and encoding."""

import pytest

from repro.errors import FuzzingError
from repro.fuzzing.datamodel import Blob, Block, Choice, DataModel, Number, Size, Str


class TestNumber:
    def test_big_endian_encode(self):
        model = DataModel("m", [Number("n", bits=16, default=0x1234)])
        assert model.build().encode() == b"\x12\x34"

    def test_little_endian_encode(self):
        model = DataModel("m", [Number("n", bits=16, default=0x1234, endian="little")])
        assert model.build().encode() == b"\x34\x12"

    def test_value_wraps_modulo_width(self):
        model = DataModel("m", [Number("n", bits=8, default=0)])
        message = model.build()
        message.set("n", 0x1FF)
        assert message.encode() == b"\xff"

    def test_signed_range(self):
        number = Number("n", bits=8, signed=True)
        assert number.min_value == -128
        assert number.max_value == 127

    def test_unsigned_range(self):
        number = Number("n", bits=16)
        assert number.min_value == 0
        assert number.max_value == 65535

    def test_signed_negative_encode(self):
        model = DataModel("m", [Number("n", bits=8, default=-1, signed=True)])
        assert model.build().encode() == b"\xff"

    def test_invalid_width_rejected(self):
        with pytest.raises(FuzzingError):
            Number("n", bits=12)

    def test_invalid_endian_rejected(self):
        with pytest.raises(FuzzingError):
            Number("n", endian="middle")


class TestStrAndBlob:
    def test_str_utf8_encode(self):
        model = DataModel("m", [Str("s", default="hi")])
        assert model.build().encode() == b"hi"

    def test_str_max_length_truncates(self):
        model = DataModel("m", [Str("s", default="abcdef", max_length=3)])
        assert model.build().encode() == b"abc"

    def test_str_accepts_bytes_value(self):
        model = DataModel("m", [Str("s", default="")])
        message = model.build()
        message.set("s", b"\xff\x00")
        assert message.encode() == b"\xff\x00"

    def test_blob_encode(self):
        model = DataModel("m", [Blob("b", default=b"\x01\x02")])
        assert model.build().encode() == b"\x01\x02"

    def test_blob_max_length(self):
        model = DataModel("m", [Blob("b", default=b"abcd", max_length=2)])
        assert model.build().encode() == b"ab"


class TestSizeRelation:
    def test_size_of_sibling(self):
        model = DataModel("m", [Size("len", of="body", bits=8), Blob("body", default=b"xyz")])
        assert model.build().encode() == b"\x03xyz"

    def test_size_follows_mutation(self):
        model = DataModel("m", [Size("len", of="body", bits=8), Blob("body", default=b"xyz")])
        message = model.build()
        message.set("body", b"twelve bytes")
        assert message.encode()[0] == 12

    def test_size_adjust(self):
        model = DataModel("m", [Size("len", of="body", bits=8, adjust=4), Blob("body", default=b"ab")])
        assert model.build().encode()[0] == 6

    def test_size_override_pins_value(self):
        model = DataModel("m", [Size("len", of="body", bits=8), Blob("body", default=b"ab")])
        message = model.build()
        message.set("len", 99)
        assert message.encode()[0] == 99

    def test_size_of_nested_block(self):
        model = DataModel("m", [
            Size("len", of="outer.inner", bits=8),
            Block("outer", [Blob("inner", default=b"abc")]),
        ])
        assert model.build().encode()[0] == 3


class TestBlockAndChoice:
    def test_block_concatenates_children(self):
        model = DataModel("m", [Block("b", [Number("x", bits=8, default=1),
                                            Number("y", bits=8, default=2)])])
        assert model.build().encode() == b"\x01\x02"

    def test_duplicate_child_names_rejected(self):
        with pytest.raises(FuzzingError):
            Block("b", [Number("x", bits=8), Number("x", bits=8)])

    def test_choice_defaults_to_first_option(self):
        model = DataModel("m", [Choice("c", [Blob("a", default=b"A"), Blob("b", default=b"B")])])
        assert model.build().encode() == b"A"

    def test_choice_select_switches_option(self):
        model = DataModel("m", [Choice("c", [Blob("a", default=b"A"), Blob("b", default=b"B")])])
        message = model.build()
        message.select("c", "b")
        assert message.encode() == b"B"

    def test_choice_unknown_option_rejected(self):
        model = DataModel("m", [Choice("c", [Blob("a", default=b"A")])])
        with pytest.raises(FuzzingError):
            model.build().select("c", "zzz")

    def test_empty_choice_rejected(self):
        with pytest.raises(FuzzingError):
            Choice("c", [])

    def test_choice_paths_listed(self):
        model = DataModel("m", [Choice("c", [Blob("a", default=b"A")])])
        assert model.build().choice_paths() == ["c"]

    def test_select_drops_choices_nested_in_the_option_left(self):
        model = DataModel("m", [Choice("c", [
            Block("a", [Choice("inner", [Blob("x"), Blob("y")])]),
            Blob("b"),
        ])])
        message = model.build()
        assert message.choice_paths() == ["c", "c.a.inner"]
        message.select("c", "b")
        assert message.choice_paths() == ["c"]
        # RandomFieldStrategy draws its targets from the selection state.
        assert "c.a.inner" not in message._active_state().target_paths
        message.select("c", "a")
        assert message.choice_paths() == ["c", "c.a.inner"]


class TestMessage:
    def _model(self):
        return DataModel("m", [
            Number("header", bits=8, default=7),
            Block("body", [Str("name", default="x"), Blob("data", default=b"d")]),
        ])

    def test_fields_in_document_order(self):
        message = self._model().build()
        assert [p for p, _ in message.fields()] == ["header", "body.name", "body.data"]

    def test_get_set(self):
        message = self._model().build()
        message.set("body.name", "updated")
        assert message.get("body.name") == "updated"

    def test_unknown_path_raises(self):
        message = self._model().build()
        with pytest.raises(FuzzingError):
            message.get("nope")
        with pytest.raises(FuzzingError):
            message.set("nope", 1)

    def test_copy_is_deep_for_values(self):
        message = self._model().build()
        clone = message.copy()
        clone.set("header", 99)
        assert message.get("header") == 7

    def test_element_at_traverses_blocks(self):
        message = self._model().build()
        element = message.element_at("body.name")
        assert isinstance(element, Str)

    def test_leaf_paths_helper(self):
        assert self._model().leaf_paths() == ["header", "body.name", "body.data"]

    def test_dotted_names_rejected(self):
        with pytest.raises(FuzzingError):
            Number("a.b", bits=8)
