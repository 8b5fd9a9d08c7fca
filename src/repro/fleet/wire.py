"""The fleet control plane's wire format: versioned JSON messages.

Every request and response crossing the coordinator/agent HTTP boundary
is a dataclass here, serialised to JSON through :func:`encode` and
rebuilt through :func:`decode`. The format is schema-versioned exactly
like campaign exports: each envelope carries
:data:`WIRE_SCHEMA_VERSION` and a decoder seeing any other version
raises :class:`~repro.errors.SchemaVersionError` instead of guessing at
an old layout.

Campaign specs and outcomes are framework objects with deeply nested
dataclasses; they travel as opaque ``spec_blob`` / ``outcome_blob``
fields — base64-encoded pickles produced by :func:`pack` — so the wire
layer never needs to mirror their schema. Everything the *control
plane* itself decides on (lease epochs, agent identity, cell states) is
first-class JSON and round-trips losslessly, which the wire test suite
pins down per message type. :func:`decode` checks every field against
its dataclass annotation, so a wrongly typed field from a peer is a
:class:`WireError` at the boundary, never a ``TypeError`` in a handler.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import json
import pickle
from dataclasses import dataclass, field
from typing import (Any, Dict, List, Optional, Union, get_args, get_origin,
                    get_type_hints)

from repro.errors import SchemaVersionError

__all__ = [
    "WIRE_SCHEMA_VERSION",
    "AgentInfo",
    "CampaignAccepted",
    "CampaignSubmit",
    "CellStatus",
    "HeartbeatRequest",
    "HeartbeatResponse",
    "LeaseGrant",
    "LeaseRelease",
    "LeaseRequest",
    "RegisterRequest",
    "RegisterResponse",
    "ResultAck",
    "ResultReport",
    "Roster",
    "SessionEvent",
    "SessionEvents",
    "SessionList",
    "SessionStatus",
    "WireError",
    "decode",
    "encode",
    "pack",
    "unpack",
]

#: Bumped whenever any wire message's layout changes incompatibly;
#: mismatched peers fail loudly at decode time instead of mis-reading
#: each other's fields.
#: 2: CampaignSubmit grew the per-cell ``timeout``.
WIRE_SCHEMA_VERSION = 2


class WireError(ValueError):
    """A malformed wire message (bad JSON, unknown kind, wrong shape)."""


def pack(obj: Any) -> str:
    """Pickle ``obj`` into a JSON-safe base64 string."""
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def unpack(blob: str) -> Any:
    """Rebuild the object a peer :func:`pack`-ed."""
    return pickle.loads(base64.b64decode(blob.encode("ascii")))


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegisterRequest:
    """An agent announcing itself to the coordinator."""

    name: str
    host: str = ""
    pid: int = 0


@dataclass(frozen=True)
class RegisterResponse:
    """The coordinator's welcome: the (uniquified) agent id and the
    cadence contract the agent must keep."""

    agent_id: str
    heartbeat_interval: float
    lease_ttl: float


@dataclass(frozen=True)
class HeartbeatRequest:
    agent_id: str


@dataclass(frozen=True)
class HeartbeatResponse:
    """``expired`` means the coordinator already swept this agent for
    missed heartbeats; it must re-register and must not report results
    for leases granted under its previous registration."""

    ok: bool
    expired: bool = False


@dataclass(frozen=True)
class LeaseRequest:
    agent_id: str


@dataclass(frozen=True)
class LeaseGrant:
    """One leased cell. ``epoch`` is the lease fencing token: a report
    carrying a stale epoch is discarded (the zombie-agent rule)."""

    session_id: str
    cell_index: int
    epoch: int
    spec_blob: str
    #: Empty grant markers: no work right now vs never again.
    idle: bool = False
    done: bool = False


@dataclass(frozen=True)
class LeaseRelease:
    """An agent giving a lease back unexecuted (graceful shutdown or an
    injected fault): the cell re-pends without charging its retry
    budget."""

    agent_id: str
    session_id: str
    cell_index: int
    epoch: int


@dataclass(frozen=True)
class ResultReport:
    """A finished cell coming back: exactly one of ``outcome_blob`` /
    ``failure`` is set."""

    agent_id: str
    session_id: str
    cell_index: int
    epoch: int
    outcome_blob: Optional[str] = None
    failure: Optional[Dict[str, Any]] = None
    from_cache: bool = False


@dataclass(frozen=True)
class ResultAck:
    accepted: bool
    reason: str = ""


@dataclass(frozen=True)
class CampaignSubmit:
    """A campaign: an ordered list of packed :class:`CampaignSpec`
    blobs. Results fold back in this order, never arrival order.
    ``timeout`` is each cell's wall-clock budget per attempt, counted
    from the grant (``None``: unbounded)."""

    spec_blobs: List[str]
    retries: int = 1
    label: str = ""
    timeout: Optional[float] = None


@dataclass(frozen=True)
class CampaignAccepted:
    session_id: str
    cells: int


@dataclass(frozen=True)
class CellStatus:
    index: int
    state: str
    epoch: int
    agent: str = ""
    attempts: int = 0
    from_cache: bool = False


@dataclass(frozen=True)
class SessionStatus:
    session_id: str
    label: str
    state: str  # "running" | "done" | "failed"
    cells: List[CellStatus] = field(default_factory=list)


@dataclass(frozen=True)
class SessionList:
    sessions: List[SessionStatus] = field(default_factory=list)


@dataclass(frozen=True)
class SessionEvent:
    """One cell transition, for the status stream (cursor = ``seq``)."""

    seq: int
    time: float
    cell_index: int
    state: str
    agent: str = ""
    epoch: int = 0


@dataclass(frozen=True)
class SessionEvents:
    session_id: str
    state: str
    events: List[SessionEvent] = field(default_factory=list)


@dataclass(frozen=True)
class AgentInfo:
    agent_id: str
    state: str  # "alive" | "dead"
    last_seen: float
    leased: int = 0
    completed: int = 0


@dataclass(frozen=True)
class Roster:
    agents: List[AgentInfo] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Envelope codec
# ---------------------------------------------------------------------------

#: Message types allowed on the wire, by envelope kind.
MESSAGE_TYPES = {
    cls.__name__: cls
    for cls in (
        RegisterRequest, RegisterResponse, HeartbeatRequest,
        HeartbeatResponse, LeaseRequest, LeaseGrant, LeaseRelease,
        ResultReport, ResultAck, CampaignSubmit, CampaignAccepted,
        CellStatus, SessionStatus, SessionList, SessionEvent,
        SessionEvents, AgentInfo, Roster,
    )
}


def encode(message: Any) -> str:
    """One message as a versioned JSON envelope."""
    kind = type(message).__name__
    if kind not in MESSAGE_TYPES:
        raise WireError("not a wire message: %r" % (message,))
    return json.dumps(
        {"schema_version": WIRE_SCHEMA_VERSION, "kind": kind,
         "payload": dataclasses.asdict(message)},
        sort_keys=True,
    )


def decode(text: str, expected: Optional[type] = None) -> Any:
    """Rebuild the message an :func:`encode` envelope carries.

    Args:
        text: The envelope JSON.
        expected: When given, the decoded message must be exactly this
            type (protects handlers from a peer posting the wrong
            message at an endpoint).

    Raises:
        SchemaVersionError: Envelope from a different wire version.
        WireError: Malformed JSON, unknown kind, a missing or unknown
            field, a field whose value does not match its annotation
            (``LeaseRelease.cell_index="x"``), or a message of the
            wrong type.
    """
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WireError("undecodable wire envelope: %s" % exc)
    if not isinstance(envelope, dict):
        raise WireError("wire envelope is not an object: %r" % (envelope,))
    version = envelope.get("schema_version")
    if version != WIRE_SCHEMA_VERSION:
        raise SchemaVersionError("fleet wire", version, WIRE_SCHEMA_VERSION)
    cls = MESSAGE_TYPES.get(envelope.get("kind"))
    if cls is None:
        raise WireError("unknown wire kind %r" % envelope.get("kind"))
    payload = envelope.get("payload")
    if not isinstance(payload, dict):
        raise WireError("wire payload is not an object: %r" % (payload,))
    message = _build(cls, payload, cls.__name__)
    if expected is not None and not isinstance(message, expected):
        raise WireError("expected %s, got %s"
                        % (expected.__name__, type(message).__name__))
    return message


@functools.lru_cache(maxsize=None)
def _field_types(cls: type) -> Dict[str, Any]:
    return get_type_hints(cls)


def _build(cls: type, payload: Dict[str, Any], where: str) -> Any:
    """``cls`` from a JSON object, each field checked against its
    annotation (nested message dataclasses are rebuilt the same way)."""
    types = _field_types(cls)
    try:
        # An unknown field passes as Any, then fails the constructor.
        return cls(**{name: _typed(value, types.get(name, Any),
                                   where + "." + name)
                      for name, value in payload.items()})
    except TypeError as exc:
        raise WireError("bad %s payload: %s" % (where, exc))


def _typed(value: Any, hint: Any, where: str) -> Any:
    """``value`` if it has the shape ``hint`` names, else :class:`WireError`.

    ``int`` rejects ``bool``; ``float`` takes any non-``bool`` number;
    ``Optional`` admits ``None``; lists and dicts are checked item by
    item; a dataclass hint rebuilds the message from its object.
    """
    origin = get_origin(hint)
    if hint is Any:
        return value
    if origin is Union:
        if value is None and type(None) in get_args(hint):
            return None
        (inner,) = [arg for arg in get_args(hint) if arg is not type(None)]
        return _typed(value, inner, where)
    if origin is list and isinstance(value, list):
        (item,) = get_args(hint)
        return [_typed(v, item, "%s[%d]" % (where, i))
                for i, v in enumerate(value)]
    if origin is dict and isinstance(value, dict):
        key_type, value_type = get_args(hint)
        return {_typed(k, key_type, where): _typed(v, value_type, where)
                for k, v in value.items()}
    if dataclasses.is_dataclass(hint) and isinstance(value, dict):
        return _build(hint, value, where)
    if hint is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif hint is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(hint, type) and isinstance(value, hint)
    if not ok:
        raise WireError("bad %s: expected %s, got %r"
                        % (where, getattr(hint, "__name__", hint), value))
    return value
