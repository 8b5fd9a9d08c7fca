"""The fleet coordinator: campaign sessions, agent roster, lease grants.

:class:`FleetCoordinator` is the pure control-plane brain — submit
campaigns, register agents, grant/expire leases, fold results — with
time injected (``clock``) so tests and the hypothesis kill-harness can
drive it deterministically without a server. :func:`serve` wraps one in
a threaded stdlib HTTP server speaking the :mod:`repro.fleet.wire`
JSON envelopes.

HTTP+JSON API (all bodies are :func:`repro.fleet.wire.encode`
envelopes)::

    GET  /v1/ping                      liveness + wire schema version
    POST /v1/campaigns                 CampaignSubmit  -> CampaignAccepted
    GET  /v1/campaigns                 -> SessionList
    GET  /v1/campaigns/<id>            -> SessionStatus (per-cell states)
    GET  /v1/campaigns/<id>/events?after=N  -> SessionEvents (status stream)
    GET  /v1/campaigns/<id>/cells/<n>  -> ResultReport (the folded result)
    GET  /v1/agents                    -> Roster
    POST /v1/agents/register           RegisterRequest -> RegisterResponse
    POST /v1/agents/heartbeat          HeartbeatRequest-> HeartbeatResponse
    POST /v1/agents/lease              LeaseRequest    -> LeaseGrant
    POST /v1/agents/release            LeaseRelease    -> ResultAck
    POST /v1/agents/result             ResultReport    -> ResultAck

Dead agents and overrun cells are detected lazily: every call first
sweeps. The sweep fails each cell held past the session's per-cell
budget (kind ``timeout``, an attempt charged), then finds registrations
whose ``last_seen`` is older than the lease TTL, expires their leases
(epoch bump → re-pend, the attempt refunded) and marks them dead. Lazy
sweeping keeps the control plane single-threaded-deterministic;
liveness holds because any surviving agent polls the lease endpoint
while idle, the submitter polls the session's status, and each poll
runs the sweep.

Telemetry (when given): ``fleet.sessions``, ``fleet.leases``,
``fleet.heartbeats``, ``fleet.expired_leases``, ``fleet.dead_agents``,
``fleet.timeouts``, ``fleet.results``, ``fleet.zombie_results``
counters plus a span per lease grant and heartbeat.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import time

from repro.fleet import wire
from repro.harness.leases import CELL_DONE, CELL_FAILED, CellFailure, LeaseTable
from repro.telemetry import NULL_TELEMETRY

__all__ = ["FleetConfig", "FleetCoordinator", "FleetServer", "serve"]


@dataclass(frozen=True)
class FleetConfig:
    """Coordinator-side cadence; retries and budgets come per submit.

    ``lease_ttl`` doubles as the dead-agent threshold: an agent silent
    for longer than one TTL loses its leases and its registration.
    """

    lease_ttl: float = 15.0
    heartbeat_interval: float = 5.0


@dataclass
class _AgentRecord:
    agent_id: str
    state: str = "alive"  # "alive" | "dead"
    last_seen: float = 0.0
    completed: int = 0


@dataclass
class _Session:
    session_id: str
    label: str
    table: LeaseTable
    submitted: float = 0.0

    @property
    def state(self) -> str:
        if not self.table.done:
            return "running"
        return "failed" if self.table.failed else "done"

    def status(self) -> wire.SessionStatus:
        return wire.SessionStatus(
            session_id=self.session_id, label=self.label, state=self.state,
            cells=[wire.CellStatus(
                index=c.index, state=c.state, epoch=c.epoch, agent=c.agent,
                attempts=c.attempts, from_cache=c.from_cache,
            ) for c in self.table.cells],
        )


class FleetCoordinator:
    """The lease-table owner. Thread-safe; time is injectable."""

    def __init__(self, config: Optional[FleetConfig] = None,
                 clock=None, telemetry=None):
        self.config = config or FleetConfig()
        self.clock = clock or time.monotonic
        self.telemetry = telemetry or NULL_TELEMETRY
        self._lock = threading.RLock()
        self._sessions: Dict[str, _Session] = {}
        self._session_order: List[str] = []
        self._agents: Dict[str, _AgentRecord] = {}
        self._serial = 0

    # -- internals ---------------------------------------------------------

    def _next_id(self, prefix: str) -> str:
        self._serial += 1
        return "%s-%04d" % (prefix, self._serial)

    def _sweep(self, now: float) -> None:
        """Fail overrun cells, then expire dead registrations and
        overdue leases."""
        for session in self._sessions.values():
            late = session.table.overrun(now)
            if late:
                self.telemetry.counter("fleet.timeouts").inc(len(late))
        ttl = self.config.lease_ttl
        for record in self._agents.values():
            if record.state == "alive" and now - record.last_seen > ttl:
                record.state = "dead"
                self.telemetry.counter("fleet.dead_agents").inc()
                for session in self._sessions.values():
                    dropped = session.table.expire_agent(record.agent_id, now)
                    if dropped:
                        self.telemetry.counter("fleet.expired_leases").inc(
                            len(dropped))
        for session in self._sessions.values():
            expired = session.table.expire(now)
            if expired:
                self.telemetry.counter("fleet.expired_leases").inc(
                    len(expired))

    def _require_alive(self, agent_id: str, now: float) -> bool:
        record = self._agents.get(agent_id)
        if record is None or record.state != "alive":
            return False
        record.last_seen = now
        return True

    # -- campaign lifecycle ------------------------------------------------

    def submit(self, message: wire.CampaignSubmit) -> wire.CampaignAccepted:
        with self._lock:
            now = self.clock()
            session_id = self._next_id("s")
            table = LeaseTable.for_payloads(
                list(message.spec_blobs),
                budget=message.timeout,
                lease_ttl=self.config.lease_ttl,
                retries=message.retries,
            )
            self._sessions[session_id] = _Session(
                session_id=session_id, label=message.label, table=table,
                submitted=now,
            )
            self._session_order.append(session_id)
            self.telemetry.counter("fleet.sessions").inc()
            self.telemetry.counter("fleet.cells").inc(len(table.cells))
            return wire.CampaignAccepted(session_id=session_id,
                                         cells=len(table.cells))

    def sessions(self) -> wire.SessionList:
        with self._lock:
            self._sweep(self.clock())
            return wire.SessionList(sessions=[
                self._sessions[sid].status() for sid in self._session_order
            ])

    def status(self, session_id: str) -> Optional[wire.SessionStatus]:
        with self._lock:
            self._sweep(self.clock())
            session = self._sessions.get(session_id)
            return None if session is None else session.status()

    def events(self, session_id: str,
               after: int = -1) -> Optional[wire.SessionEvents]:
        with self._lock:
            self._sweep(self.clock())
            session = self._sessions.get(session_id)
            if session is None:
                return None
            return wire.SessionEvents(
                session_id=session_id, state=session.state,
                events=[wire.SessionEvent(
                    seq=e.seq, time=e.time, cell_index=e.cell_index,
                    state=e.state, agent=e.agent, epoch=e.epoch,
                ) for e in session.table.events if e.seq > after],
            )

    def cell_result(self, session_id: str,
                    index: int) -> Optional[wire.ResultReport]:
        """The folded result of one settled cell (for export merging)."""
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None or not 0 <= index < len(session.table.cells):
                return None
            cell = session.table.cells[index]
            if cell.state not in (CELL_DONE, CELL_FAILED):
                return None
            return wire.ResultReport(
                agent_id=cell.agent, session_id=session_id,
                cell_index=index, epoch=cell.epoch,
                outcome_blob=cell.outcome,
                failure=None if cell.failure is None
                else cell.failure.to_dict(),
                from_cache=cell.from_cache,
            )

    # -- agent lifecycle ---------------------------------------------------

    def register(self, message: wire.RegisterRequest) -> wire.RegisterResponse:
        with self._lock:
            now = self.clock()
            self._sweep(now)
            base = message.name or "agent"
            agent_id = base
            if agent_id in self._agents:
                agent_id = self._next_id(base)
            self._agents[agent_id] = _AgentRecord(agent_id=agent_id,
                                                  last_seen=now)
            self.telemetry.counter("fleet.registrations").inc()
            return wire.RegisterResponse(
                agent_id=agent_id,
                heartbeat_interval=self.config.heartbeat_interval,
                lease_ttl=self.config.lease_ttl,
            )

    def heartbeat(self, message: wire.HeartbeatRequest) -> wire.HeartbeatResponse:
        with self._lock:
            now = self.clock()
            self._sweep(now)
            with self.telemetry.span("fleet.heartbeat",
                                     agent=message.agent_id):
                self.telemetry.counter("fleet.heartbeats").inc()
                if not self._require_alive(message.agent_id, now):
                    return wire.HeartbeatResponse(ok=False, expired=True)
                for session in self._sessions.values():
                    session.table.heartbeat(message.agent_id, now)
                return wire.HeartbeatResponse(ok=True)

    def lease(self, message: wire.LeaseRequest) -> wire.LeaseGrant:
        with self._lock:
            now = self.clock()
            self._sweep(now)
            with self.telemetry.span("fleet.lease", agent=message.agent_id):
                if not self._require_alive(message.agent_id, now):
                    return wire.LeaseGrant(session_id="", cell_index=-1,
                                           epoch=-1, spec_blob="", done=True)
                for sid in self._session_order:
                    cell = self._sessions[sid].table.lease(
                        message.agent_id, now)
                    if cell is not None:
                        self.telemetry.counter("fleet.leases").inc()
                        return wire.LeaseGrant(
                            session_id=sid, cell_index=cell.index,
                            epoch=cell.epoch, spec_blob=cell.payload,
                        )
                return wire.LeaseGrant(session_id="", cell_index=-1,
                                       epoch=-1, spec_blob="", idle=True)

    def release(self, message: wire.LeaseRelease) -> wire.ResultAck:
        with self._lock:
            now = self.clock()
            session = self._sessions.get(message.session_id)
            if session is None:
                return wire.ResultAck(accepted=False, reason="no such session")
            ok = session.table.release(message.agent_id, message.cell_index,
                                       message.epoch, now)
            if ok:
                self.telemetry.counter("fleet.released").inc()
            return wire.ResultAck(accepted=ok,
                                  reason="" if ok else "stale release")

    def report(self, message: wire.ResultReport) -> wire.ResultAck:
        with self._lock:
            now = self.clock()
            self._sweep(now)
            session = self._sessions.get(message.session_id)
            if session is None:
                return wire.ResultAck(accepted=False, reason="no such session")
            if message.outcome_blob is not None:
                accepted, reason = session.table.complete(
                    message.agent_id, message.cell_index, message.epoch,
                    message.outcome_blob, now, from_cache=message.from_cache,
                )
            else:
                accepted, reason = session.table.fail(
                    message.agent_id, message.cell_index, message.epoch,
                    CellFailure.from_dict(message.failure or {}), now,
                )
            if accepted:
                self.telemetry.counter("fleet.results").inc()
                record = self._agents.get(message.agent_id)
                if record is not None:
                    record.completed += 1
            else:
                self.telemetry.counter("fleet.zombie_results").inc()
            return wire.ResultAck(accepted=accepted, reason=reason)

    def roster(self) -> wire.Roster:
        with self._lock:
            self._sweep(self.clock())
            agents = []
            for agent_id in sorted(self._agents):
                record = self._agents[agent_id]
                leased = sum(len(s.table.leased_to(agent_id))
                             for s in self._sessions.values())
                agents.append(wire.AgentInfo(
                    agent_id=agent_id, state=record.state,
                    last_seen=record.last_seen, leased=leased,
                    completed=record.completed,
                ))
            return wire.Roster(agents=agents)


# ---------------------------------------------------------------------------
# HTTP layer
# ---------------------------------------------------------------------------

_CAMPAIGN_PATH = re.compile(r"^/v1/campaigns/([^/]+)$")
_EVENTS_PATH = re.compile(r"^/v1/campaigns/([^/]+)/events$")
_CELL_PATH = re.compile(r"^/v1/campaigns/([^/]+)/cells/(\d+)$")

#: POST route -> (handler attr, expected request type).
_POST_ROUTES = {
    "/v1/campaigns": ("submit", wire.CampaignSubmit),
    "/v1/agents/register": ("register", wire.RegisterRequest),
    "/v1/agents/heartbeat": ("heartbeat", wire.HeartbeatRequest),
    "/v1/agents/lease": ("lease", wire.LeaseRequest),
    "/v1/agents/release": ("release", wire.LeaseRelease),
    "/v1/agents/result": ("report", wire.ResultReport),
}


class _Handler(BaseHTTPRequestHandler):
    coordinator: FleetCoordinator = None  # set by the server factory
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # noqa: A003 - quiet by default
        pass

    def _send(self, status: int, body: str,
              content_type: str = "application/json") -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_message(self, message: Any, status: int = 200) -> None:
        self._send(status, wire.encode(message))

    def _error(self, status: int, detail: str) -> None:
        self._send(status, json.dumps({"error": detail}))

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler contract
        parsed = urlparse(self.path)
        path = parsed.path
        if path == "/v1/ping":
            self._send(200, json.dumps(
                {"ok": True, "schema_version": wire.WIRE_SCHEMA_VERSION}))
            return
        if path == "/v1/campaigns":
            self._send_message(self.coordinator.sessions())
            return
        if path == "/v1/agents":
            self._send_message(self.coordinator.roster())
            return
        match = _EVENTS_PATH.match(path)
        if match:
            query = parse_qs(parsed.query)
            after = int(query.get("after", ["-1"])[0])
            events = self.coordinator.events(match.group(1), after=after)
            if events is None:
                self._error(404, "no such session")
            else:
                self._send_message(events)
            return
        match = _CELL_PATH.match(path)
        if match:
            report = self.coordinator.cell_result(match.group(1),
                                                  int(match.group(2)))
            if report is None:
                self._error(404, "cell not settled (or unknown)")
            else:
                self._send_message(report)
            return
        match = _CAMPAIGN_PATH.match(path)
        if match:
            status = self.coordinator.status(match.group(1))
            if status is None:
                self._error(404, "no such session")
            else:
                self._send_message(status)
            return
        self._error(404, "unknown endpoint %s" % path)

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler contract
        route = _POST_ROUTES.get(urlparse(self.path).path)
        if route is None:
            self._error(404, "unknown endpoint %s" % self.path)
            return
        handler_name, expected = route
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length).decode("utf-8")
        try:
            message = wire.decode(body, expected=expected)
        except Exception as exc:  # wire/schema errors -> 400, not a 500
            self._error(400, str(exc))
            return
        response = getattr(self.coordinator, handler_name)(message)
        self._send_message(response)


@dataclass
class FleetServer:
    """A running coordinator server (own daemon thread)."""

    coordinator: FleetCoordinator
    httpd: ThreadingHTTPServer
    thread: threading.Thread = field(init=False)

    def __post_init__(self) -> None:
        self.thread = threading.Thread(target=self.httpd.serve_forever,
                                       name="fleet-coordinator", daemon=True)

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return "http://%s:%d" % (host, port)

    def start(self) -> "FleetServer":
        self.thread.start()
        return self

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(5.0)


def serve(coordinator: Optional[FleetCoordinator] = None,
          host: str = "127.0.0.1", port: int = 0,
          config: Optional[FleetConfig] = None,
          telemetry=None) -> FleetServer:
    """Bind a coordinator HTTP server (port 0 = ephemeral); call
    :meth:`FleetServer.start` to begin serving."""
    coordinator = coordinator or FleetCoordinator(config=config,
                                                  telemetry=telemetry)
    handler = type("BoundHandler", (_Handler,), {"coordinator": coordinator})
    httpd = ThreadingHTTPServer((host, port), handler)
    httpd.daemon_threads = True
    return FleetServer(coordinator=coordinator, httpd=httpd)
