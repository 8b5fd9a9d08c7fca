"""Regression tests for the pool's worker-side error handlers.

PR 7 replaced the cache layer's bare ``except Exception`` with the
concrete ``UNPICKLE_ERRORS`` set; these pin the same treatment applied
to the pool's three worker-side handlers: ``Connection.send`` /
``Connection.close`` failures from the *expected* sets are swallowed
(the parent records a died worker), while anything outside the sets is
a real bug and must propagate.
"""

import pickle

import pytest

from repro.harness import pool
from repro.harness.pool import (
    _PIPE_CLOSE_ERRORS,
    _PIPE_SEND_ERRORS,
    _doomed_entry,
    _task_entry,
)


class _FakeConn:
    """A Connection double with scriptable send/close failures."""

    def __init__(self, send_exc=None, close_exc=None):
        self.sent = []
        self.closed = 0
        self._send_exc = send_exc
        self._close_exc = close_exc

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
    def test_success_ships_ok_and_closes(self):
        conn = _FakeConn()
        _task_entry(_ok_runner, 21, conn)
        assert conn.sent == [("ok", 42)]
        assert conn.closed == 1

    def test_failure_ships_a_structured_error_record(self):
        conn = _FakeConn()
        _task_entry(_boom_runner, "p", conn)
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
        'unreportable failure' path: swallow, still close."""
        conn = _FakeConn(send_exc=exc)
        _task_entry(_boom_runner, "p", conn)
        assert conn.sent == []
        assert conn.closed == 1

    def test_unexpected_send_failure_propagates(self):
        conn = _FakeConn(send_exc=ZeroDivisionError("a genuine bug"))
        with pytest.raises(ZeroDivisionError):
            _task_entry(_boom_runner, "p", conn)
        assert conn.closed == 1          # the finally still runs


class TestTaskEntryClose:
    def test_expected_close_failure_is_swallowed(self):
        conn = _FakeConn(close_exc=OSError("already closed"))
        _task_entry(_ok_runner, 1, conn)   # must not raise
        assert conn.sent == [("ok", 2)]

    def test_unexpected_close_failure_propagates(self):
        conn = _FakeConn(close_exc=RuntimeError("not an I/O error"))
        with pytest.raises(RuntimeError):
            _task_entry(_ok_runner, 1, conn)


class TestDoomedEntry:
    def _record_exit(self, monkeypatch):
        calls = []
        monkeypatch.setattr(pool.os, "_exit", calls.append)
        return calls

    def test_exits_173_after_closing(self, monkeypatch):
        calls = self._record_exit(monkeypatch)
        conn = _FakeConn()
        _doomed_entry(conn)
        assert conn.closed == 1
        assert calls == [173]

    def test_broken_pipe_on_close_still_dooms(self, monkeypatch):
        calls = self._record_exit(monkeypatch)
        conn = _FakeConn(close_exc=BrokenPipeError("pipe gone"))
        _doomed_entry(conn)
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
