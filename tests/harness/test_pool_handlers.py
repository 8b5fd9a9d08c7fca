"""Regression tests for the pool worker's error handlers.

The pool's worker loop (``_worker_loop``) answers each ``("run", …)``
order with one reply and ends on ``None``, a hung-up parent or a
``("die", None)`` order. These pin its handlers with the concrete-set
treatment the cache layer gives ``UNPICKLE_ERRORS``:
``Connection.send`` / ``Connection.close`` failures from the *expected*
sets are swallowed (the worker exits without a reply, and the parent
records a died worker), while anything outside the sets is a real bug
and must propagate.
"""

import pickle

import pytest

from repro.harness import pool
from repro.harness.pool import (
    _PIPE_CLOSE_ERRORS,
    _PIPE_SEND_ERRORS,
    _worker_loop,
)


class _FakeConn:
    """A duplex Connection double: scripted orders in, replies recorded,
    scriptable send/close failures. Past its last order it reads as a
    hung-up parent (``EOFError``)."""

    def __init__(self, orders, send_exc=None, close_exc=None):
        self.orders = list(orders)
        self.sent = []
        self.closed = 0
        self._send_exc = send_exc
        self._close_exc = close_exc

    def poll(self, timeout=None):
        return True

    def recv(self):
        if not self.orders:
            raise EOFError
        return self.orders.pop(0)

    def send(self, message):
        if self._send_exc is not None:
            raise self._send_exc
        self.sent.append(message)

    def close(self):
        self.closed += 1
        if self._close_exc is not None:
            raise self._close_exc


def _ok_runner(payload):
    return payload * 2


def _boom_runner(payload):
    raise ValueError("boom: %r" % (payload,))


class TestTaskEntrySend:
    """One ``run`` order: its reply, or a silent exit."""

    def test_success_ships_ok_and_closes(self):
        conn = _FakeConn([("run", 21)])
        _worker_loop(_ok_runner, conn)
        assert conn.sent == [("ok", 42)]
        assert conn.closed == 1

    def test_failure_ships_a_structured_error_record(self):
        conn = _FakeConn([("run", "p")])
        _worker_loop(_boom_runner, conn)
        status, failure = conn.sent[0]
        assert (status, failure.kind) == ("error", "exception")
        assert failure.message.startswith("ValueError: boom")
        assert "ValueError" in failure.traceback
        assert conn.closed == 1

    @pytest.mark.parametrize("exc", [
        BrokenPipeError("parent gone"),          # OSError subclass
        OSError("pipe failed"),
        ValueError("Connection is closed"),
        pickle.PicklingError("unpicklable record"),
        TypeError("cannot pickle a local object"),
        AttributeError("lost attribute during pickling"),
    ])
    def test_expected_send_failures_die_silently(self, exc):
        """The error-report send failing for a listed reason is the
        'unreportable failure' path: no reply, and the worker exits
        (closing its pipe) instead of serving the next order."""
        conn = _FakeConn([("run", "p"), ("run", "q")], send_exc=exc)
        _worker_loop(_boom_runner, conn)
        assert conn.sent == []
        assert conn.orders == [("run", "q")]
        assert conn.closed == 1

    def test_unexpected_send_failure_propagates(self):
        conn = _FakeConn([("run", "p")],
                         send_exc=ZeroDivisionError("a genuine bug"))
        with pytest.raises(ZeroDivisionError):
            _worker_loop(_boom_runner, conn)
        assert conn.closed == 1          # the finally still runs


class TestWorkerLoop:
    def test_serves_orders_until_told_to_stop(self):
        conn = _FakeConn([("run", 1), ("run", 2), None, ("run", 3)])
        _worker_loop(_ok_runner, conn)
        assert conn.sent == [("ok", 2), ("ok", 4)]
        assert conn.orders == [("run", 3)]
        assert conn.closed == 1

    def test_a_raising_task_leaves_the_worker_serving(self):
        def flaky(payload):
            if payload == "bad":
                raise RuntimeError("transient")
            return payload

        conn = _FakeConn([("run", "bad"), ("run", "good")])
        _worker_loop(flaky, conn)
        assert [status for status, _ in conn.sent] == ["error", "ok"]
        assert conn.sent[1] == ("ok", "good")

    def test_an_orphan_exits_without_reading(self, monkeypatch):
        """A worker whose parent died (reparented) stops polling and
        exits instead of waiting on a pipe nobody will write."""
        ppids = iter([100, 1])
        monkeypatch.setattr(pool.os, "getppid", lambda: next(ppids))
        conn = _FakeConn([("run", 1)])
        conn.poll = lambda timeout=None: False
        _worker_loop(_ok_runner, conn)
        assert conn.sent == [] and conn.orders == [("run", 1)]
        assert conn.closed == 1


class TestTaskEntryClose:
    def test_expected_close_failure_is_swallowed(self):
        conn = _FakeConn([("run", 1)], close_exc=OSError("already closed"))
        _worker_loop(_ok_runner, conn)   # must not raise
        assert conn.sent == [("ok", 2)]

    def test_unexpected_close_failure_propagates(self):
        conn = _FakeConn([("run", 1)],
                         close_exc=RuntimeError("not an I/O error"))
        with pytest.raises(RuntimeError):
            _worker_loop(_ok_runner, conn)


class TestDoomedEntry:
    """A ``die`` order: close the pipe, then ``os._exit(173)``, with no
    reply and without serving the orders behind it."""

    def _record_exit(self, monkeypatch):
        calls = []
        monkeypatch.setattr(pool.os, "_exit", calls.append)
        return calls

    def test_exits_173_after_closing(self, monkeypatch):
        calls = self._record_exit(monkeypatch)
        conn = _FakeConn([("die", None), ("run", 1)])
        _worker_loop(_ok_runner, conn)
        assert conn.sent == []
        assert conn.orders == [("run", 1)]
        assert conn.closed == 1
        assert calls == [173]

    def test_broken_pipe_on_close_still_dooms(self, monkeypatch):
        calls = self._record_exit(monkeypatch)
        conn = _FakeConn([("die", None)],
                         close_exc=BrokenPipeError("pipe gone"))
        _worker_loop(_ok_runner, conn)
        assert calls == [173]


class TestErrorSets:
    """The sets themselves are part of the contract: concrete, commented,
    and no blanket Exception."""

    def test_no_blanket_exception_in_either_set(self):
        assert Exception not in _PIPE_SEND_ERRORS
        assert Exception not in _PIPE_CLOSE_ERRORS
        assert BaseException not in _PIPE_SEND_ERRORS
        assert BaseException not in _PIPE_CLOSE_ERRORS

    def test_send_set_covers_the_documented_failures(self):
        # BrokenPipeError and ConnectionResetError are OSError subclasses.
        assert issubclass(BrokenPipeError, _PIPE_SEND_ERRORS)
        assert issubclass(ConnectionResetError, _PIPE_SEND_ERRORS)
        assert pickle.PicklingError in _PIPE_SEND_ERRORS
        assert ValueError in _PIPE_SEND_ERRORS

    def test_close_set_is_os_errors_only(self):
        assert _PIPE_CLOSE_ERRORS == (OSError,)
