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
pins down per message type.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

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

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "SessionStatus":
        cells = [CellStatus(**cell) for cell in payload.pop("cells", [])]
        return cls(cells=cells, **payload)


@dataclass(frozen=True)
class SessionList:
    sessions: List[SessionStatus] = field(default_factory=list)

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "SessionList":
        return cls(sessions=[SessionStatus.from_wire(s)
                             for s in payload.get("sessions", [])])


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

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "SessionEvents":
        events = [SessionEvent(**e) for e in payload.pop("events", [])]
        return cls(events=events, **payload)


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

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "Roster":
        return cls(agents=[AgentInfo(**a) for a in payload.get("agents", [])])


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
        WireError: Malformed JSON, unknown kind, or a type mismatch.
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
    try:
        if hasattr(cls, "from_wire"):
            message = cls.from_wire(dict(payload))
        else:
            message = cls(**payload)
    except TypeError as exc:
        raise WireError("bad %s payload: %s" % (cls.__name__, exc))
    if expected is not None and not isinstance(message, expected):
        raise WireError("expected %s, got %s"
                        % (expected.__name__, type(message).__name__))
    return message
