"""End-to-end control plane over real HTTP: server, client, agents.

Everything here exercises the actual wire path — a ThreadingHTTPServer
on a loopback port, ``CoordinatorClient`` requests, ``FleetAgent``
threads — with a cheap in-process runner so the suite stays fast.
"""

import dataclasses
import http.client
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.fleet import (
    CoordinatorClient,
    CoordinatorUnavailable,
    FleetAgent,
    FleetConfig,
    serve,
    wait_for_session,
    wire,
)


@dataclasses.dataclass(frozen=True)
class FakeSpec:
    """A picklable stand-in for CampaignSpec (cache stays off here)."""

    value: int
    boom: bool = False


def _runner(spec):
    if spec.boom:
        raise RuntimeError("cell exploded (value=%d)" % spec.value)
    return {"doubled": spec.value * 2}


def _sleepy_runner(spec):
    time.sleep(spec.value)
    return {"slept": spec.value}


@pytest.fixture()
def fleet():
    server = serve(config=FleetConfig(lease_ttl=5.0,
                                      heartbeat_interval=1.0)).start()
    client = CoordinatorClient(server.url)
    client.wait_ready()
    try:
        yield server, client
    finally:
        server.stop()


def _submit(client, specs, retries=1):
    return client.submit([wire.pack(s) for s in specs], retries=retries)


#: A well-formed envelope whose ``cell_index`` is not an integer.
_MISTYPED_RELEASE = wire.encode(wire.LeaseRelease(
    agent_id="t-0", session_id="s-0001", cell_index="x", epoch=1,
)).encode("utf-8")


def _run_agents(server, count=2, **kwargs):
    kwargs.setdefault("cache", False)
    kwargs.setdefault("poll", 0.02)
    agents = [FleetAgent(CoordinatorClient(server.url), name="t-%d" % i,
                         runner=_runner, stop_when_idle=True, **kwargs)
              for i in range(count)]
    threads = [threading.Thread(target=a.run, daemon=True) for a in agents]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30.0)
    return agents


class TestLiveness:
    def test_ping_and_wait_ready(self, fleet):
        _, client = fleet
        assert client.ping()

    def test_ping_false_when_nothing_listens(self):
        assert not CoordinatorClient("127.0.0.1:9", timeout=0.5).ping()

    def test_unknown_get_endpoint_is_404(self, fleet):
        _, client = fleet
        with pytest.raises(CoordinatorUnavailable, match="404"):
            client._request("GET", "/v1/nonsense")

    def test_unknown_session_is_404(self, fleet):
        _, client = fleet
        with pytest.raises(CoordinatorUnavailable, match="404"):
            client.status("s-9999")

    def test_malformed_post_body_is_400_not_500(self, fleet):
        _, client = fleet
        with pytest.raises(CoordinatorUnavailable, match="400"):
            client._request("POST", "/v1/campaigns", body="{broken")
        # Wrong message type at the endpoint is a 400 too.
        with pytest.raises(CoordinatorUnavailable, match="400"):
            client._request("POST", "/v1/campaigns",
                            body=wire.encode(wire.HeartbeatRequest("a")))

    @pytest.mark.parametrize("method, path, headers, body", [
        ("GET", "/v1/campaigns/s-1/events?after=abc", {}, None),
        ("POST", "/v1/agents/register", {"Content-Length": "abc"}, b"{}"),
        ("POST", "/v1/agents/register", {"Content-Length": "-5"}, b"{}"),
        ("POST", "/v1/agents/register", {"Content-Length": "2"}, b"\xff\xfe"),
        ("POST", "/v1/agents/release", {"Content-Length": "%d" % len(
            _MISTYPED_RELEASE)}, _MISTYPED_RELEASE),
    ], ids=["non-integer-after", "non-integer-content-length",
            "negative-content-length", "non-utf8-body", "mistyped-field"])
    def test_malformed_http_input_is_400(self, fleet, method, path,
                                         headers, body):
        server, client = fleet
        # A live session, so a message that got past decoding would
        # reach that session's lease table.
        _submit(client, [FakeSpec(1)])
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=5.0)
        try:
            conn.putrequest(method, path)
            for name, value in headers.items():
                conn.putheader(name, value)
            conn.endheaders(body)
            response = conn.getresponse()
            assert response.status == 400
            assert "error" in json.loads(response.read())
        finally:
            conn.close()
        assert client.ping()


class TestRegistration:
    def test_register_returns_cadence_contract(self, fleet):
        _, client = fleet
        welcome = client.register("alpha")
        assert welcome.agent_id == "alpha"
        assert welcome.heartbeat_interval == 1.0
        assert welcome.lease_ttl == 5.0

    def test_duplicate_names_are_uniquified(self, fleet):
        _, client = fleet
        first = client.register("twin")
        second = client.register("twin")
        assert first.agent_id != second.agent_id

    def test_heartbeat_from_unknown_agent_says_expired(self, fleet):
        _, client = fleet
        answer = client.heartbeat("ghost")
        assert not answer.ok and answer.expired


class TestCampaignExecution:
    def test_two_agents_drain_a_session_and_results_fold_in_order(self, fleet):
        server, client = fleet
        accepted = _submit(client, [FakeSpec(v) for v in (7, 8, 9)])
        assert accepted.cells == 3
        _run_agents(server, count=2)
        status = wait_for_session(client, accepted.session_id, poll=0.05,
                                  timeout=10.0)
        assert status.state == "done"
        for index, value in enumerate((7, 8, 9)):
            report = client.cell_result(accepted.session_id, index)
            assert wire.unpack(report.outcome_blob) == {"doubled": value * 2}

    def test_roster_reflects_agents_and_completions(self, fleet):
        server, client = fleet
        accepted = _submit(client, [FakeSpec(v) for v in range(4)])
        _run_agents(server, count=2)
        wait_for_session(client, accepted.session_id, poll=0.05, timeout=10.0)
        roster = client.roster()
        mine = [a for a in roster.agents if a.agent_id.startswith("t-")]
        assert len(mine) == 2
        assert sum(a.completed for a in mine) == 4
        assert all(a.state == "alive" for a in mine)

    def test_failing_cell_exhausts_budget_and_fails_session(self, fleet):
        server, client = fleet
        accepted = _submit(client, [FakeSpec(1), FakeSpec(2, boom=True)],
                           retries=1)
        _run_agents(server, count=1)
        status = wait_for_session(client, accepted.session_id, poll=0.05,
                                  timeout=10.0)
        assert status.state == "failed"
        good = client.cell_result(accepted.session_id, 0)
        assert wire.unpack(good.outcome_blob) == {"doubled": 2}
        bad = client.cell_result(accepted.session_id, 1)
        assert bad.outcome_blob is None
        assert "cell exploded" in bad.failure["message"]
        cell = {c.index: c for c in status.cells}[1]
        assert cell.state == "failed" and cell.attempts == 2

    def test_events_stream_with_cursor(self, fleet):
        server, client = fleet
        accepted = _submit(client, [FakeSpec(3)])
        _run_agents(server, count=1)
        wait_for_session(client, accepted.session_id, poll=0.05, timeout=10.0)
        events = client.events(accepted.session_id)
        assert [e.state for e in events.events] == ["leased", "done"]
        tail = client.events(accepted.session_id,
                             after=events.events[0].seq)
        assert [e.state for e in tail.events] == ["done"]
        assert tail.state == "done"

    def test_unsettled_cell_result_is_404(self, fleet):
        _, client = fleet
        accepted = _submit(client, [FakeSpec(1)])
        with pytest.raises(CoordinatorUnavailable, match="404"):
            client.cell_result(accepted.session_id, 0)

    def test_sessions_lists_in_submit_order(self, fleet):
        _, client = fleet
        first = _submit(client, [FakeSpec(1)])
        second = _submit(client, [FakeSpec(2)])
        listed = [s.session_id for s in client.sessions().sessions]
        assert listed == [first.session_id, second.session_id]


class TestDeadAgentSweep:
    def test_silent_agent_is_swept_and_its_lease_reassigned(self):
        """An agent that registers, leases and goes dark loses the lease
        after one TTL; a live agent then picks the cell up and the late
        zombie report is rejected."""
        server = serve(config=FleetConfig(lease_ttl=0.4,
                                          heartbeat_interval=0.1)).start()
        try:
            client = CoordinatorClient(server.url)
            client.wait_ready()
            accepted = _submit(client, [FakeSpec(5)])
            dead = client.register("doomed")
            grant = client.lease(dead.agent_id)
            assert grant.cell_index == 0
            time.sleep(0.6)  # past the TTL with no heartbeat
            _run_agents(server, count=1)
            status = wait_for_session(client, accepted.session_id, poll=0.05,
                                      timeout=10.0)
            assert status.state == "done"
            ack = client.report(wire.ResultReport(
                agent_id=dead.agent_id, session_id=accepted.session_id,
                cell_index=0, epoch=grant.epoch,
                outcome_blob=wire.pack({"zombie": True})))
            assert not ack.accepted
            report = client.cell_result(accepted.session_id, 0)
            assert wire.unpack(report.outcome_blob) == {"doubled": 10}
            roster = {a.agent_id: a for a in client.roster().agents}
            assert roster[dead.agent_id].state == "dead"
        finally:
            server.stop()

    def test_swept_agent_reregisters_via_heartbeat_answer(self):
        server = serve(config=FleetConfig(lease_ttl=0.3,
                                          heartbeat_interval=0.1)).start()
        try:
            client = CoordinatorClient(server.url)
            client.wait_ready()
            welcome = client.register("lazarus")
            time.sleep(0.5)
            client.register("sweeper")  # any mutating call runs the sweep
            answer = client.heartbeat(welcome.agent_id)
            assert answer.expired
        finally:
            server.stop()


class TestLongCells:
    def test_cell_longer_than_half_the_lease_ttl_settles_once(self):
        """Regression: the ephemeral fleet (10 s lease TTL) runs a 6 s
        cell next to an idle agent, without the result cache. When idle
        agents stole leases older than half the TTL, the steal fenced
        the holder's result and restarted the cell, forever."""
        from repro.harness.executor import execute_specs

        box = {}

        def grid():
            box["cells"] = execute_specs(
                [FakeSpec(0), FakeSpec(6)], backend="fleet", workers=2,
                runner=_sleepy_runner, retries=0)

        thread = threading.Thread(target=grid, daemon=True)
        thread.start()
        thread.join(60.0)
        assert not thread.is_alive(), "the grid did not settle within 60 s"
        cells = box["cells"]
        assert [cell.outcome for cell in cells] == [{"slept": 0},
                                                    {"slept": 6}]
        assert [cell.attempts for cell in cells] == [1, 1]


class TestRemoteDispatch:
    def test_run_specs_fleet_against_external_coordinator(self):
        """The executor's remote shape: a running coordinator with its
        own agents, run_specs_fleet only submits and folds."""
        from repro.fleet import run_specs_fleet

        server = serve(config=FleetConfig(lease_ttl=5.0,
                                          heartbeat_interval=1.0)).start()
        try:
            client = CoordinatorClient(server.url)
            client.wait_ready()
            agent = FleetAgent(CoordinatorClient(server.url), name="ext",
                               runner=_runner, cache=False, poll=0.02)
            thread = threading.Thread(target=agent.run, daemon=True)
            thread.start()
            try:
                cells = run_specs_fleet(
                    [FakeSpec(v) for v in (1, 2)], coordinator=server.url,
                    poll=0.05, timeout=15.0)
            finally:
                agent.stop()
                thread.join(5.0)
            assert [c.outcome for c in cells] == [
                {"doubled": 2}, {"doubled": 4}]
            assert [c.index for c in cells] == [0, 1]
        finally:
            server.stop()

    def test_run_specs_fleet_waits_for_a_late_coordinator(self):
        """Submitting before the coordinator listens must wait for it,
        not fail the grid with CoordinatorUnavailable."""
        from repro.fleet import run_specs_fleet

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with ThreadPoolExecutor(max_workers=1) as pool:
            submitted = pool.submit(
                run_specs_fleet, [FakeSpec(3)],
                coordinator="http://127.0.0.1:%d" % port, poll=0.05,
                timeout=15.0)
            time.sleep(0.5)
            server = serve(port=port, config=FleetConfig(
                lease_ttl=5.0, heartbeat_interval=1.0)).start()
            agent = FleetAgent(CoordinatorClient(server.url), name="late",
                               runner=_runner, cache=False, poll=0.02)
            thread = threading.Thread(target=agent.run, daemon=True)
            thread.start()
            try:
                cells = submitted.result(timeout=20.0)
            finally:
                agent.stop()
                thread.join(5.0)
                server.stop()
        assert [c.outcome for c in cells] == [{"doubled": 6}]

    def test_remote_dispatch_rejects_custom_runner(self):
        from repro.fleet import run_specs_fleet

        with pytest.raises(ValueError, match="custom runner"):
            run_specs_fleet([FakeSpec(1)], coordinator="127.0.0.1:9",
                            runner=_runner)
