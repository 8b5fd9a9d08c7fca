"""The lease state machine: fencing epochs, budgets, retry accounting.

Time is injected into every transition, so these tests replay the exact
schedules the docstring promises are safe: expiry → reassignment →
zombie report, double-lease attempts, heartbeat jitter, budget overruns.
"""

from repro.fleet import FleetConfig, FleetCoordinator, wire
from repro.harness.leases import (
    CELL_DONE,
    CELL_FAILED,
    CELL_LEASED,
    CELL_PENDING,
    CellFailure,
    LeaseTable,
)

_BOOM = CellFailure(kind="exception", message="boom")


def _table(cells=3, **kwargs):
    kwargs.setdefault("lease_ttl", 10.0)
    return LeaseTable.for_payloads(["blob-%d" % i for i in range(cells)],
                                   **kwargs)


class TestGrants:
    def test_pending_cells_go_out_lowest_index_first(self):
        table = _table(3)
        assert table.lease("a", now=0.0).index == 0
        assert table.lease("b", now=0.0).index == 1
        assert table.lease("a", now=0.0).index == 2

    def test_grant_carries_epoch_and_deadline(self):
        table = _table(1, lease_ttl=7.0)
        cell = table.lease("a", now=3.0)
        assert cell.epoch == 1
        assert cell.leased_at == 3.0
        assert cell.deadline == 10.0
        assert cell.attempts == 1

    def test_no_pending_no_steal_returns_none(self):
        """An idle agent never takes a lease another agent holds, however
        old; only expiry or release can free it."""
        table = _table(2)
        table.lease("a", now=0.0)
        table.lease("a", now=0.0)
        assert table.lease("b", now=100.0) is None

    def test_done_table_reports_done(self):
        table = _table(1)
        cell = table.lease("a", now=0.0)
        accepted, _ = table.complete("a", 0, cell.epoch, "out", now=1.0)
        assert accepted
        assert table.done and not table.failed


class TestDoubleLeaseImpossibility:
    def test_leased_cell_is_never_granted_twice_while_valid(self):
        """Exhaustively: at every step of a three-agent scramble, the set
        of validly leased cells never contains a duplicate and a second
        grant of a live lease never happens."""
        table = _table(4, lease_ttl=10.0)
        live = {}  # cell index -> (agent, epoch) of the valid lease
        now = 0.0
        for step in range(80):
            agent = "abc"[step % 3]
            now += 0.5
            table.expire(now=now)  # nobody heartbeats: leases lapse
            cell = table.lease(agent, now=now)
            if cell is None:
                continue
            if cell.index in live:
                # Only reachable via the expiry path, which must have
                # revoked the old epoch first.
                _, old_epoch = live[cell.index]
                assert cell.epoch > old_epoch
            live[cell.index] = (agent, cell.epoch)
            leased_now = [c for c in table.cells if c.state == CELL_LEASED]
            assert len({c.index for c in leased_now}) == len(leased_now)
        assert any(c.epoch > 1 for c in table.cells), "nothing expired"


class TestExpiry:
    def test_expire_repends_overdue_leases_only(self):
        table = _table(2, lease_ttl=10.0)
        table.lease("a", now=0.0)
        table.lease("b", now=8.0)
        expired = table.expire(now=12.0)
        assert [c.index for c in expired] == [0]
        assert table.cells[0].state == CELL_PENDING
        assert table.cells[1].state == CELL_LEASED

    def test_expire_then_reassign_then_zombie_report_discarded(self):
        """The headline schedule: agent a dies mid-cell, the cell is
        re-leased to b, then a's late (zombie) report must be discarded
        and b's accepted."""
        table = _table(1, lease_ttl=10.0)
        doomed_epoch = table.lease("a", now=0.0).epoch
        assert table.expire(now=11.0)  # a missed every heartbeat
        fresh = table.lease("b", now=12.0)
        assert fresh.epoch > doomed_epoch
        accepted, reason = table.complete("a", 0, doomed_epoch, "zombie",
                                          now=13.0)
        assert not accepted and "stale epoch" in reason
        accepted, _ = table.complete("b", 0, fresh.epoch, "good", now=14.0)
        assert accepted
        assert table.cells[0].outcome == "good"

    def test_expiry_refunds_the_attempt(self):
        """Deaths are lease-style: only reported failures charge the
        budget, so a cell can die more times than it has retries."""
        table = _table(1, lease_ttl=10.0, retries=1)
        now = 0.0
        for _ in range(5):
            cell = table.lease("a", now=now)
            assert cell is not None, "expiries must never exhaust the budget"
            now += 11.0
            assert table.expire(now=now)
        cell = table.lease("b", now=now)
        accepted, _ = table.complete("b", 0, cell.epoch, "out", now=now + 1)
        assert accepted

    def test_expire_agent_drops_all_its_leases_at_once(self):
        table = _table(3, lease_ttl=50.0)
        table.lease("a", now=0.0)
        table.lease("b", now=0.0)
        table.lease("a", now=0.0)
        dropped = table.expire_agent("a", now=1.0)
        assert sorted(c.index for c in dropped) == [0, 2]
        assert table.leased_to("a") == []
        assert [c.index for c in table.leased_to("b")] == [1]


class TestHeartbeat:
    def test_heartbeat_extends_every_lease_of_the_agent(self):
        table = _table(2, lease_ttl=10.0)
        table.lease("a", now=0.0)
        table.lease("a", now=2.0)
        assert table.heartbeat("a", now=9.0) == 2
        assert not table.expire(now=12.0)  # both deadlines moved to 19.0
        assert table.expire(now=19.5)

    def test_jittered_heartbeats_keep_a_long_cell_alive(self):
        """Irregular-but-in-ttl heartbeats (scheduling jitter) never let
        a healthy agent's lease lapse."""
        table = _table(1, lease_ttl=10.0)
        cell = table.lease("a", now=0.0)
        for now in (4.0, 13.0, 17.5, 27.0, 33.0):  # gaps up to 9.5 < ttl
            assert not table.expire(now=now)
            table.heartbeat("a", now=now)
        accepted, _ = table.complete("a", 0, cell.epoch, "out", now=34.0)
        assert accepted

    def test_heartbeat_for_idle_agent_is_a_noop(self):
        table = _table(1)
        assert table.heartbeat("idle", now=0.0) == 0


class TestResults:
    def test_duplicate_report_rejected_first_wins(self):
        table = _table(1)
        cell = table.lease("a", now=0.0)
        assert table.complete("a", 0, cell.epoch, "first", now=1.0)[0]
        accepted, reason = table.complete("a", 0, cell.epoch, "second",
                                          now=2.0)
        assert not accepted and "duplicate" in reason
        assert table.cells[0].outcome == "first"

    def test_wrong_agent_report_rejected(self):
        table = _table(1)
        cell = table.lease("a", now=0.0)
        accepted, _ = table.complete("imposter", 0, cell.epoch, "out", now=1.0)
        assert not accepted

    def test_release_refunds_the_attempt_and_fences(self):
        table = _table(1, retries=0)
        cell = table.lease("a", now=0.0)
        assert table.release("a", 0, cell.epoch, now=1.0)
        assert table.cells[0].state == CELL_PENDING
        assert table.cells[0].attempts == 0
        assert not table.release("a", 0, cell.epoch, now=2.0)  # stale now
        # The refund means the next attempt still fits a retries=0 budget.
        again = table.lease("b", now=3.0)
        assert again.attempts == 1

    def test_reported_failures_consume_the_budget_then_fail(self):
        table = _table(1, retries=1)
        first = table.lease("a", now=0.0)
        ok, _ = table.fail("a", 0, first.epoch, _BOOM, now=1.0)
        assert ok and table.cells[0].state == CELL_PENDING
        second = table.lease("a", now=2.0)
        assert second.attempts == 2
        ok, _ = table.fail("a", 0, second.epoch, _BOOM, now=3.0)
        assert ok
        assert table.cells[0].state == CELL_FAILED
        assert table.cells[0].failure.message == "boom"
        assert table.done and table.failed

    def test_zombie_failure_report_discarded(self):
        table = _table(1, lease_ttl=10.0, retries=0)
        doomed_epoch = table.lease("a", now=0.0).epoch
        table.expire(now=11.0)
        ok, _ = table.fail("a", 0, doomed_epoch, _BOOM, now=12.0)
        assert not ok
        assert table.cells[0].state == CELL_PENDING  # budget untouched


class TestRevokedLeasesAreRefunded:
    """Expiry, expire_agent and a release take a lease back unfinished:
    none of them may charge the retry budget, so a failure reported
    after one is still the cell's first (``retries=1`` re-pends it)."""

    def _fail(self, table, cell, now):
        ok, _ = table.fail(cell.agent, cell.index, cell.epoch, _BOOM,
                           now=now)
        assert ok
        return table.cells[cell.index]

    def test_failure_after_expiry_is_the_first(self):
        table = _table(1, lease_ttl=10.0, retries=1)
        table.lease("a", now=0.0)
        assert table.expire(now=11.0)
        cell = self._fail(table, table.lease("b", now=12.0), now=13.0)
        assert cell.state == CELL_PENDING and cell.attempts == 1

    def test_failure_after_expire_agent_is_the_first(self):
        table = _table(1, lease_ttl=10.0, retries=1)
        table.lease("a", now=0.0)
        assert table.expire_agent("a", now=1.0)
        cell = self._fail(table, table.lease("b", now=2.0), now=3.0)
        assert cell.state == CELL_PENDING and cell.attempts == 1

    def test_only_reported_failures_exhaust_the_budget(self):
        table = _table(1, lease_ttl=10.0, retries=1)
        self._fail(table, table.lease("a", now=0.0), now=1.0)
        table.lease("a", now=2.0)
        assert table.expire(now=13.0)
        cell = self._fail(table, table.lease("b", now=14.0), now=15.0)
        assert cell.state == CELL_FAILED and cell.attempts == 2

    def test_a_completed_cell_counts_only_the_grant_that_ran(self):
        table = _table(1, lease_ttl=10.0, retries=0)
        table.lease("a", now=0.0)
        table.expire(now=11.0)
        cell = table.lease("b", now=12.0)
        assert table.complete("b", 0, cell.epoch, "out", now=13.0)[0]
        assert table.cells[0].attempts == 1


class TestEvents:
    def test_every_transition_is_journaled_in_order(self):
        table = _table(1, lease_ttl=10.0)
        cell = table.lease("a", now=1.0)
        table.expire(now=12.0)
        cell = table.lease("b", now=13.0)
        table.complete("b", 0, cell.epoch, "out", now=14.0)
        states = [e.state for e in table.events]
        assert states == [CELL_LEASED, CELL_PENDING, CELL_LEASED, CELL_DONE]
        assert [e.seq for e in table.events] == [0, 1, 2, 3]
        epochs = [e.epoch for e in table.events]
        assert epochs == sorted(epochs)


class TestBudgets:
    """A cell's budget counts from its grant; an overrun is a failure
    the executor observed, so it charges the attempt."""

    def test_overrun_fails_as_timeout_and_charges(self):
        table = _table(1, retries=1, budget=5.0)
        first = table.lease("a", now=0.0)
        assert table.overrun(now=4.9) == []
        assert [c.index for c in table.overrun(now=5.0)] == [0]
        assert first.state == CELL_PENDING and first.attempts == 1
        accepted, reason = table.complete("a", 0, 1, "late", now=6.0)
        assert not accepted and "no live lease" in reason
        second = table.lease("b", now=7.0)
        assert second.attempts == 2 and second.epoch == 3
        table.overrun(now=12.0)
        assert table.cells[0].state == CELL_FAILED
        assert table.cells[0].failure.kind == "timeout"
        assert "5.0s" in table.cells[0].failure.message

    def test_late_report_after_final_timeout_is_fenced(self):
        table = _table(1, retries=0, budget=1.0)
        cell = table.lease("a", now=0.0)
        table.overrun(now=2.0)
        accepted, _ = table.complete("a", 0, cell.epoch, "late", now=3.0)
        assert not accepted
        assert table.failed and table.cells[0].outcome is None

    def test_heartbeats_do_not_extend_the_budget(self):
        table = _table(1, lease_ttl=10.0, budget=5.0)
        table.lease("a", now=0.0)
        table.heartbeat("a", now=4.0)
        assert not table.expire(now=5.0)
        assert table.overrun(now=5.0)

    def test_unbudgeted_cells_never_overrun(self):
        table = _table(2)
        table.lease("a", now=0.0)
        assert table.overrun(now=1e9) == []
        assert table.next_overrun() is None

    def test_next_overrun_is_the_earliest_running_budget(self):
        table = _table(2, budget=5.0)
        table.lease("a", now=1.0)
        table.lease("b", now=3.0)
        assert table.next_overrun() == 6.0
        table.complete("a", 0, 1, "out", now=2.0)
        assert table.next_overrun() == 8.0

    def test_no_ttl_means_no_heartbeat_expiry(self):
        table = _table(1, lease_ttl=None)
        cell = table.lease("pool", now=0.0)
        assert cell.deadline is None
        assert table.heartbeat("pool", now=1.0) == 1
        assert table.expire(now=1e9) == []
        assert table.complete("pool", 0, cell.epoch, "out", now=1e9)[0]


class TestCellFailure:
    def test_from_exception_names_the_error_and_keeps_the_trace(self):
        try:
            raise RuntimeError("injected failure")
        except RuntimeError as exc:
            failure = CellFailure.from_exception(exc)
        assert failure.kind == "exception"
        assert failure.message == "RuntimeError: injected failure"
        assert "Traceback" in failure.traceback
        assert "injected failure" in failure.traceback

    def test_dict_round_trip(self):
        failure = CellFailure(kind="worker-died", message="gone",
                              traceback="tb", exitcode=17)
        assert CellFailure.from_dict(failure.to_dict()) == failure

    def test_from_dict_fills_missing_fields(self):
        assert CellFailure.from_dict({}) == CellFailure(kind="exception",
                                                        message="")


class TestNoStealing:
    """Regression: an idle agent must never take the running cell of a
    live agent. When idle agents stole leases older than
    ``lease_ttl / 2``, each steal fenced the holder's result and
    restarted the cell, so a cell longer than that never settled."""

    def test_a_long_cell_settles_with_its_first_holder(self):
        clock = [0.0]
        coordinator = FleetCoordinator(config=FleetConfig(lease_ttl=10.0),
                                       clock=lambda: clock[0])
        session = coordinator.submit(wire.CampaignSubmit(
            spec_blobs=["six-second-cell"], retries=1)).session_id
        idle = coordinator.register(wire.RegisterRequest(name="a")).agent_id
        busy = coordinator.register(wire.RegisterRequest(name="b")).agent_id
        grant = coordinator.lease(wire.LeaseRequest(agent_id=busy))
        assert grant.cell_index == 0
        # b runs the cell for 6 s, heartbeating every 2 s, while a polls
        # for work every half second.
        while clock[0] < 6.0:
            clock[0] += 0.5
            if clock[0] % 2.0 == 0.0:
                coordinator.heartbeat(wire.HeartbeatRequest(agent_id=busy))
            polled = coordinator.lease(wire.LeaseRequest(agent_id=idle))
            assert polled.idle, "agent a took b's live lease at t=%.1f" \
                % clock[0]
        ack = coordinator.report(wire.ResultReport(
            agent_id=busy, session_id=session, cell_index=0,
            epoch=grant.epoch, outcome_blob="out"))
        assert ack.accepted, ack.reason
        cell = coordinator.status(session).cells[0]
        assert (cell.state, cell.attempts) == (CELL_DONE, 1)
