"""Wire-format round-trips: every message survives the envelope codec."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaVersionError
from repro.fleet import wire

#: One representative instance per wire message type; the registry test
#: below guarantees this table stays complete as messages are added.
_EXAMPLES = [
    wire.RegisterRequest(name="agent-7", host="riser-3", pid=4242),
    wire.RegisterResponse(agent_id="agent-7", heartbeat_interval=5.0,
                          lease_ttl=15.0),
    wire.HeartbeatRequest(agent_id="agent-7"),
    wire.HeartbeatResponse(ok=False, expired=True),
    wire.LeaseRequest(agent_id="agent-7"),
    wire.LeaseGrant(session_id="s-0001", cell_index=3, epoch=2,
                    spec_blob=wire.pack({"cell": 3}), idle=False, done=False),
    wire.LeaseRelease(agent_id="agent-7", session_id="s-0001",
                      cell_index=3, epoch=2),
    wire.ResultReport(agent_id="agent-7", session_id="s-0001", cell_index=3,
                      epoch=2, outcome_blob=wire.pack(("ok", 1)),
                      failure=None, from_cache=True),
    wire.ResultAck(accepted=False, reason="stale epoch 1 (current 3)"),
    wire.CampaignSubmit(spec_blobs=[wire.pack(i) for i in range(3)],
                        retries=2, label="tableI"),
    wire.CampaignAccepted(session_id="s-0001", cells=3),
    wire.CellStatus(index=0, state="leased", epoch=1, agent="agent-7",
                    attempts=1, from_cache=False),
    wire.SessionStatus(
        session_id="s-0001", label="tableI", state="running",
        cells=[wire.CellStatus(index=0, state="done", epoch=1,
                               agent="agent-7", attempts=1)],
    ),
    wire.SessionList(sessions=[wire.SessionStatus(
        session_id="s-0001", label="", state="done", cells=[])]),
    wire.SessionEvent(seq=4, time=12.5, cell_index=0, state="pending",
                      agent="", epoch=2),
    wire.SessionEvents(
        session_id="s-0001", state="running",
        events=[wire.SessionEvent(seq=0, time=0.0, cell_index=0,
                                  state="leased", agent="a", epoch=1)],
    ),
    wire.AgentInfo(agent_id="agent-7", state="dead", last_seen=88.0,
                   leased=2, completed=5),
    wire.Roster(agents=[wire.AgentInfo(agent_id="a", state="alive",
                                       last_seen=1.0)]),
]


class TestRoundTrips:
    @pytest.mark.parametrize(
        "message", _EXAMPLES, ids=[type(m).__name__ for m in _EXAMPLES])
    def test_encode_decode_is_identity(self, message):
        assert wire.decode(wire.encode(message)) == message

    def test_example_table_covers_every_registered_type(self):
        assert {type(m).__name__ for m in _EXAMPLES} == \
            set(wire.MESSAGE_TYPES)

    def test_every_message_type_is_a_frozen_dataclass(self):
        for cls in wire.MESSAGE_TYPES.values():
            assert dataclasses.is_dataclass(cls), cls
            assert cls.__dataclass_params__.frozen, cls

    def test_encode_is_canonical(self):
        """Sorted keys: the same message always encodes to the same bytes
        (exports and goldens may embed envelopes)."""
        message = _EXAMPLES[0]
        assert wire.encode(message) == wire.encode(message)
        assert '"schema_version": %d' % wire.WIRE_SCHEMA_VERSION \
            in wire.encode(message)


class TestPack:
    @pytest.mark.parametrize("obj", [
        None, 42, "text", (1, 2, 3), {"nested": [1, {"k": "v"}]},
    ])
    def test_pack_unpack_identity(self, obj):
        assert wire.unpack(wire.pack(obj)) == obj

    def test_blob_is_json_safe_ascii(self):
        blob = wire.pack({"payload": b"\x00\xff" * 64})
        assert isinstance(blob, str)
        blob.encode("ascii")  # must not raise


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12,
)
_FIELD_NAMES = sorted({f.name for cls in wire.MESSAGE_TYPES.values()
                       for f in dataclasses.fields(cls)})
#: Current-version envelopes whose payloads mix real field names with
#: junk, so decoding gets past the envelope checks; the kind is a real
#: one or any JSON value (an unhashable list or object included).
_ENVELOPES = st.builds(
    lambda kind, payload: json.dumps({
        "schema_version": wire.WIRE_SCHEMA_VERSION, "kind": kind,
        "payload": payload}),
    st.sampled_from(sorted(wire.MESSAGE_TYPES)) | _JSON,
    st.dictionaries(st.sampled_from(_FIELD_NAMES) | st.text(max_size=6),
                    _JSON, max_size=6),
)


class TestDecodeRejections:
    def test_wrong_schema_version_raises_schema_error(self):
        text = wire.encode(_EXAMPLES[0]).replace(
            '"schema_version": %d' % wire.WIRE_SCHEMA_VERSION,
            '"schema_version": %d' % (wire.WIRE_SCHEMA_VERSION + 1))
        with pytest.raises(SchemaVersionError):
            wire.decode(text)

    def test_missing_schema_version_raises_schema_error(self):
        with pytest.raises(SchemaVersionError):
            wire.decode('{"kind": "ResultAck", "payload": {"accepted": true}}')

    def test_bad_json_raises_wire_error(self):
        with pytest.raises(wire.WireError):
            wire.decode("{nope")

    def test_non_object_envelope_raises_wire_error(self):
        with pytest.raises(wire.WireError):
            wire.decode("[1, 2, 3]")

    def test_unknown_kind_raises_wire_error(self):
        text = wire.encode(wire.ResultAck(accepted=True)).replace(
            "ResultAck", "FleetTakeover")
        with pytest.raises(wire.WireError):
            wire.decode(text)

    @pytest.mark.parametrize("kind", [[], {}, 7, None],
                             ids=["list", "object", "number", "null"])
    def test_non_string_kind_raises_wire_error(self, kind):
        text = json.dumps({"schema_version": wire.WIRE_SCHEMA_VERSION,
                           "kind": kind, "payload": {}})
        with pytest.raises(wire.WireError, match="unknown wire kind"):
            wire.decode(text)

    def test_malformed_payload_raises_wire_error(self):
        text = ('{"schema_version": %d, "kind": "ResultAck", '
                '"payload": {"unexpected": 1}}' % wire.WIRE_SCHEMA_VERSION)
        with pytest.raises(wire.WireError):
            wire.decode(text)

    @pytest.mark.parametrize("text", ["[" * 100000, '{"a": ' * 100000],
                             ids=["list", "object"])
    def test_deep_json_raises_wire_error(self, text):
        with pytest.raises(wire.WireError, match="undecodable"):
            wire.decode(text)

    def test_overlong_integer_raises_wire_error(self):
        with pytest.raises(wire.WireError, match="undecodable"):
            wire.decode("1" * 5000)

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(st.text(), _ENVELOPES))
    def test_arbitrary_text_raises_only_typed_errors(self, text):
        try:
            message = wire.decode(text)
        except (wire.WireError, SchemaVersionError):
            return
        assert type(message).__name__ in wire.MESSAGE_TYPES

    def test_expected_type_mismatch_raises_wire_error(self):
        text = wire.encode(wire.ResultAck(accepted=True))
        with pytest.raises(wire.WireError):
            wire.decode(text, expected=wire.LeaseGrant)

    def test_encode_rejects_non_wire_objects(self):
        with pytest.raises(wire.WireError):
            wire.encode({"kind": "dict, not a message"})


def _envelope(kind, payload):
    return json.dumps({"schema_version": wire.WIRE_SCHEMA_VERSION,
                       "kind": kind, "payload": payload})


_RELEASE = {"agent_id": "a", "session_id": "s-0001", "cell_index": 3,
            "epoch": 2}
_STATUS = {"session_id": "s-0001", "label": "", "state": "running",
           "cells": [{"index": 0, "state": "leased", "epoch": 1}]}


class TestFieldTypes:
    """``decode`` checks each field against its dataclass annotation."""

    @pytest.mark.parametrize("kind, payload", [
        ("LeaseRelease", dict(_RELEASE, cell_index="x")),
        ("LeaseRelease", dict(_RELEASE, cell_index=True)),
        ("LeaseRelease", dict(_RELEASE, epoch=2.0)),
        ("LeaseRelease", dict(_RELEASE, agent_id=7)),
        ("LeaseRelease", dict(_RELEASE, session_id=None)),
        ("HeartbeatResponse", {"ok": 1}),
        ("RegisterResponse", {"agent_id": "a", "heartbeat_interval": False,
                              "lease_ttl": 15.0}),
        ("RegisterResponse", {"agent_id": "a", "heartbeat_interval": "5",
                              "lease_ttl": 15.0}),
        ("CampaignSubmit", {"spec_blobs": "abc"}),
        ("CampaignSubmit", {"spec_blobs": ["a", 1]}),
        ("CampaignSubmit", {"spec_blobs": [], "timeout": "soon"}),
        ("ResultReport", dict(_RELEASE, failure=["not", "a", "dict"])),
        ("ResultReport", dict(_RELEASE, failure="exploded")),
        ("SessionStatus", dict(_STATUS, cells={"index": 0})),
        ("SessionStatus", dict(_STATUS, cells=[["not", "an", "object"]])),
        ("SessionStatus", dict(_STATUS, cells=[{"index": "0", "state": "x",
                                                "epoch": 1}])),
        ("SessionStatus", dict(_STATUS, cells=[{"index": 0, "state": "x",
                                                "epoch": 1, "extra": 1}])),
        ("Roster", {"agents": [{"agent_id": "a", "state": "alive"}]}),
    ], ids=[
        "int-field-str", "int-field-bool", "int-field-float",
        "str-field-int", "str-field-none", "bool-field-int",
        "float-field-bool", "float-field-str", "list-field-str",
        "list-item-mistyped", "optional-field-mistyped",
        "dict-field-list", "dict-field-str", "nested-list-object",
        "nested-item-not-object", "nested-field-mistyped",
        "nested-unknown-field", "nested-missing-field",
    ])
    def test_mistyped_field_raises_wire_error(self, kind, payload):
        with pytest.raises(wire.WireError):
            wire.decode(_envelope(kind, payload))

    def test_optional_admits_none_and_float_admits_int(self):
        message = wire.decode(_envelope("CampaignSubmit", {
            "spec_blobs": ["a"], "timeout": None}))
        assert message.timeout is None
        welcome = wire.decode(_envelope("RegisterResponse", {
            "agent_id": "a", "heartbeat_interval": 5, "lease_ttl": 15.0}))
        assert welcome.heartbeat_interval == 5

    def test_nested_messages_are_rebuilt_as_dataclasses(self):
        status = wire.decode(_envelope("SessionStatus", _STATUS))
        assert status.cells == [wire.CellStatus(index=0, state="leased",
                                                epoch=1)]
