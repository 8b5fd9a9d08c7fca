"""The coordinator's HTTP client: stdlib-only, wire-typed.

One :class:`CoordinatorClient` per coordinator URL; every method maps
1:1 onto a control-plane endpoint and speaks
:mod:`repro.fleet.wire` envelopes. A fresh ``http.client`` connection
per request keeps the client trivially thread-safe (the agent's
heartbeat thread and lease loop share one instance).

Transient transport errors (coordinator restarting, socket hiccups)
surface as :class:`CoordinatorUnavailable`; callers with a retry
budget — the agent loop, :func:`wait_for_session` — catch exactly that
and keep going, while programming errors propagate.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, List, Optional
from urllib.parse import urlparse

from repro.errors import HarnessError
from repro.fleet import wire

__all__ = ["CoordinatorClient", "CoordinatorUnavailable", "wait_for_session"]


class CoordinatorUnavailable(HarnessError):
    """The coordinator could not be reached (or answered garbage)."""


#: Everything the stdlib HTTP stack raises on a dead/unreachable peer.
_TRANSPORT_ERRORS = (ConnectionError, socket.timeout, socket.gaierror,
                     http.client.HTTPException, OSError)


class CoordinatorClient:
    """Typed requests against one coordinator base URL."""

    def __init__(self, base_url: str, timeout: float = 10.0):
        parsed = urlparse(base_url if "//" in base_url
                          else "http://" + base_url)
        if parsed.scheme not in ("http", ""):
            raise ValueError("coordinator URL must be http://, got %r"
                             % base_url)
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 80
        self.timeout = timeout
        self.base_url = "http://%s:%d" % (self.host, self.port)

    # -- transport ---------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Optional[str] = None) -> str:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            headers = {"Content-Type": "application/json"}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            text = response.read().decode("utf-8")
            if response.status >= 400:
                detail = text
                try:
                    detail = json.loads(text).get("error", text)
                except (json.JSONDecodeError, AttributeError):
                    pass
                raise CoordinatorUnavailable(
                    "%s %s -> HTTP %d: %s"
                    % (method, path, response.status, detail))
            return text
        except _TRANSPORT_ERRORS as exc:
            raise CoordinatorUnavailable(
                "%s %s against %s failed: %s"
                % (method, path, self.base_url, exc))
        finally:
            conn.close()

    def _call(self, method: str, path: str, message: Any = None,
              expected: Optional[type] = None) -> Any:
        body = wire.encode(message) if message is not None else None
        return wire.decode(self._request(method, path, body),
                           expected=expected)

    # -- liveness ----------------------------------------------------------

    def ping(self) -> bool:
        try:
            payload = json.loads(self._request("GET", "/v1/ping"))
        except CoordinatorUnavailable:
            return False
        return bool(payload.get("ok"))

    def wait_ready(self, timeout: float = 10.0, poll: float = 0.1) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.ping():
                return
            time.sleep(poll)
        raise CoordinatorUnavailable(
            "coordinator at %s not ready within %.1fs"
            % (self.base_url, timeout))

    # -- campaigns ---------------------------------------------------------

    def submit(self, spec_blobs: List[str], retries: int = 1,
               label: str = "",
               timeout: Optional[float] = None) -> wire.CampaignAccepted:
        return self._call(
            "POST", "/v1/campaigns",
            wire.CampaignSubmit(spec_blobs=list(spec_blobs), retries=retries,
                                label=label, timeout=timeout),
            expected=wire.CampaignAccepted)

    def sessions(self) -> wire.SessionList:
        return self._call("GET", "/v1/campaigns", expected=wire.SessionList)

    def status(self, session_id: str) -> wire.SessionStatus:
        return self._call("GET", "/v1/campaigns/%s" % session_id,
                          expected=wire.SessionStatus)

    def events(self, session_id: str, after: int = -1) -> wire.SessionEvents:
        return self._call(
            "GET", "/v1/campaigns/%s/events?after=%d" % (session_id, after),
            expected=wire.SessionEvents)

    def cell_result(self, session_id: str, index: int) -> wire.ResultReport:
        return self._call(
            "GET", "/v1/campaigns/%s/cells/%d" % (session_id, index),
            expected=wire.ResultReport)

    # -- agent plane -------------------------------------------------------

    def register(self, name: str, host: str = "",
                 pid: int = 0) -> wire.RegisterResponse:
        return self._call(
            "POST", "/v1/agents/register",
            wire.RegisterRequest(name=name, host=host, pid=pid),
            expected=wire.RegisterResponse)

    def heartbeat(self, agent_id: str) -> wire.HeartbeatResponse:
        return self._call("POST", "/v1/agents/heartbeat",
                          wire.HeartbeatRequest(agent_id=agent_id),
                          expected=wire.HeartbeatResponse)

    def lease(self, agent_id: str) -> wire.LeaseGrant:
        return self._call("POST", "/v1/agents/lease",
                          wire.LeaseRequest(agent_id=agent_id),
                          expected=wire.LeaseGrant)

    def release(self, agent_id: str, session_id: str, cell_index: int,
                epoch: int) -> wire.ResultAck:
        return self._call(
            "POST", "/v1/agents/release",
            wire.LeaseRelease(agent_id=agent_id, session_id=session_id,
                              cell_index=cell_index, epoch=epoch),
            expected=wire.ResultAck)

    def report(self, message: wire.ResultReport) -> wire.ResultAck:
        return self._call("POST", "/v1/agents/result", message,
                          expected=wire.ResultAck)

    def roster(self) -> wire.Roster:
        return self._call("GET", "/v1/agents", expected=wire.Roster)


def wait_for_session(client: CoordinatorClient, session_id: str,
                     poll: float = 0.25,
                     timeout: Optional[float] = None) -> wire.SessionStatus:
    """Block until the session settles; tolerant of transient outages."""
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        try:
            status = client.status(session_id)
            if status.state != "running":
                return status
        except CoordinatorUnavailable:
            pass  # coordinator restarting or briefly unreachable
        if deadline is not None and time.monotonic() >= deadline:
            raise CoordinatorUnavailable(
                "session %s still running after %.1fs" % (session_id, timeout))
        time.sleep(poll)
