"""Differential tests for the batched channel primitives and transport.

``Endpoint.drain``/``requeue`` and ``Channel.send_many_to_server`` pull
or push a batch of datagrams at once; :class:`ChannelTransport` drains
its server inbox with them. Each test drives the batched primitive and
its recv-loop equivalent (for the transport, an in-test pump doing one
``recv`` per datagram) over the same inputs — including faults
mid-batch — and requires identical endpoint state, byte counters and
responses afterwards.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NamespaceError
from repro.fuzzing.engine import ChannelTransport
from repro.netns.channel import Channel, Endpoint

PAYLOADS = st.lists(st.binary(min_size=0, max_size=16), max_size=12)

_SETTINGS = settings(max_examples=100, deadline=None)


class TestDrain:
    @_SETTINGS
    @given(payloads=PAYLOADS)
    def test_drain_equals_recv_loop(self, payloads):
        looped, batched = Endpoint("a"), Endpoint("b")
        for payload in payloads:
            looped.deliver(payload)
            batched.deliver(payload)
        collected = []
        while True:
            item = looped.recv()
            if item is None:
                break
            collected.append(item)
        assert batched.drain() == collected
        assert batched.pending() == looped.pending() == 0
        assert batched.drain() == []

    def test_drain_empty_is_cheap_and_empty(self):
        endpoint = Endpoint("e")
        assert endpoint.drain() == []
        assert endpoint.recv() is None


class TestRequeue:
    @_SETTINGS
    @given(payloads=PAYLOADS, cut=st.integers(min_value=0, max_value=12),
           tail=PAYLOADS)
    def test_requeue_restores_fifo_order(self, payloads, cut, tail):
        """Requeueing the undrained tail must leave exactly the state a
        recv-loop that stopped at ``cut`` would have left."""
        cut = min(cut, len(payloads))
        looped, batched = Endpoint("a"), Endpoint("b")
        for payload in payloads:
            looped.deliver(payload)
            batched.deliver(payload)
        # New datagrams arriving after the fault, before any requeue read.
        for _ in range(cut):
            looped.recv()
        batch = batched.drain()
        batched.requeue(batch[cut:])
        for payload in tail:
            looped.deliver(payload)
            batched.deliver(payload)
        assert list(batched._inbox) == list(looped._inbox)

    def test_requeue_empty_is_noop(self):
        endpoint = Endpoint("e")
        endpoint.deliver(b"x")
        endpoint.requeue([])
        assert endpoint.recv() == b"x"


class TestSendMany:
    @_SETTINGS
    @given(payloads=PAYLOADS)
    def test_send_many_matches_send_loop(self, payloads):
        looped, batched = Channel("a"), Channel("b")
        for payload in payloads:
            looped.send_to_server(payload)
        batched.send_many_to_server(payloads)
        assert (list(batched.server._inbox) == list(looped.server._inbox))
        assert batched.bytes_to_server == looped.bytes_to_server

    def test_send_many_to_closed_raises(self):
        channel = Channel("c")
        channel.server.close()
        with pytest.raises(NamespaceError):
            channel.send_many_to_server([b"x"])


class _ScriptedTarget:
    """Replies per script; raises on payloads marked as faulty."""

    def __init__(self, reply_every=2, fault_on=None):
        self.handled = []
        self.reply_every = reply_every
        self.fault_on = fault_on
        self.resets = 0

    def handle_packet(self, payload):
        if self.fault_on is not None and payload == self.fault_on:
            raise RuntimeError("scripted fault")
        self.handled.append(payload)
        if len(self.handled) % self.reply_every == 0:
            return b"re:" + payload
        return None

    def reset_session(self):
        self.resets += 1


class _RecvLoopTransport:
    """Reference pump: one ``recv`` round per pending datagram."""

    def __init__(self, channel, target):
        self.channel = channel
        self.target = target

    def send(self, payload):
        self.channel.send_to_server(payload)
        response = None
        while True:
            pending = self.channel.server.recv()
            if pending is None:
                break
            reply = self.target.handle_packet(pending)
            if reply:
                self.channel.send_to_client(reply)
                response = self.channel.client.recv()
        return response


def _transports(reply_every=2, fault_on=None):
    slow = _RecvLoopTransport(Channel("slow"),
                              _ScriptedTarget(reply_every, fault_on))
    fast = ChannelTransport(Channel("fast"),
                            _ScriptedTarget(reply_every, fault_on))
    return slow, fast


class TestBatchedChannelTransport:
    @_SETTINGS
    @given(payloads=st.lists(st.binary(min_size=1, max_size=8),
                             min_size=1, max_size=10),
           reply_every=st.integers(min_value=1, max_value=3))
    def test_send_matches_unbatched(self, payloads, reply_every):
        slow, fast = _transports(reply_every=reply_every)
        for payload in payloads:
            assert fast.send(payload) == slow.send(payload)
            assert fast.target.handled == slow.target.handled
            assert (fast.channel.bytes_to_server
                    == slow.channel.bytes_to_server)
            assert (fast.channel.bytes_to_client
                    == slow.channel.bytes_to_client)
            assert (fast.channel.server.pending()
                    == slow.channel.server.pending())
            assert (fast.channel.client.pending()
                    == slow.channel.client.pending())

    def test_fault_mid_batch_requeues_tail(self):
        """On a fault, the batched transport must leave exactly the
        datagrams the recv-loop transport leaves queued."""
        slow, fast = _transports(fault_on=b"boom")
        # Preload both server inboxes so one send drains a batch of 3.
        for transport in (slow, fast):
            transport.channel.server.deliver(b"ok1")
            transport.channel.server.deliver(b"boom")
            transport.channel.server.deliver(b"after")
        with pytest.raises(RuntimeError):
            slow.send(b"trigger")
        with pytest.raises(RuntimeError):
            fast.send(b"trigger")
        assert fast.target.handled == slow.target.handled == [b"ok1"]
        assert (list(fast.channel.server._inbox)
                == list(slow.channel.server._inbox)
                == [b"after", b"trigger"])

    def test_handles_replies_queued_during_batch(self):
        """Replies that enqueue new work keep draining (re-drain loop)."""
        slow, fast = _transports(reply_every=1)
        for payload in (b"a", b"b", b"c"):
            assert fast.send(payload) == slow.send(payload)
        assert fast.target.handled == slow.target.handled
