"""Tests for the NIC: GET/PUT semantics through the F-box."""

import pytest

from repro.core.ports import Port, PrivatePort
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic


@pytest.fixture
def net():
    return SimNetwork()


@pytest.fixture
def pair(net):
    return Nic(net), Nic(net)


class TestListen:
    def test_listen_returns_wire_port(self, pair):
        _, b = pair
        g = PrivatePort.generate()
        wire = b.listen(g)
        assert wire == g.public

    def test_listen_accepts_port_private_or_int(self, pair):
        _, b = pair
        assert b.listen(5) == b.listen(Port(5))

    def test_unlisten_stops_delivery(self, pair):
        a, b = pair
        g = PrivatePort(7)
        wire = b.listen(g)
        b.unlisten(g)
        assert not a.put(Message(dest=wire))

    def test_poll_empty(self, pair):
        _, b = pair
        g = PrivatePort(7)
        b.listen(g)
        assert b.poll(g) is None

    def test_poll_fifo_order(self, pair):
        a, b = pair
        g = PrivatePort(7)
        wire = b.listen(g)
        a.put(Message(dest=wire, command=1))
        a.put(Message(dest=wire, command=2))
        assert b.poll(g).message.command == 1
        assert b.poll(g).message.command == 2

    def test_pending(self, pair):
        a, b = pair
        g = PrivatePort(7)
        wire = b.listen(g)
        assert len(b._sinks[wire]) == 0
        a.put(Message(dest=wire))
        assert len(b._sinks[wire]) == 1


class TestServe:
    def test_handler_invoked_synchronously(self, pair):
        a, b = pair
        g = PrivatePort(7)
        seen = []
        wire = b.serve(g, seen.append)
        a.put(Message(dest=wire, data=b"request"))
        assert len(seen) == 1
        assert seen[0].message.data == b"request"

    def test_handler_wins_over_queue(self, pair):
        a, b = pair
        g = PrivatePort(7)
        b.listen(g)
        seen = []
        wire = b.serve(g, seen.append)
        a.put(Message(dest=wire))
        assert seen and b.poll(g) is None

    def test_nested_rpc_from_handler(self, net):
        # A server may itself call another server while handling a
        # request (flat file server -> block server); the synchronous
        # delivery model must support that reentrancy.
        front, back, client = Nic(net), Nic(net), Nic(net)
        g_back = PrivatePort(1)
        wire_back = back.serve(
            g_back, lambda f: back.put(f.message.reply_to(data=b"inner"))
        )

        g_front = PrivatePort(2)

        def front_handler(frame):
            reply_private = PrivatePort(3)
            front.listen(reply_private)
            front.put(Message(dest=wire_back, reply=Port(reply_private.secret)))
            inner = front.poll(reply_private)
            front.put(frame.message.reply_to(data=b"outer+" + inner.message.data))

        wire_front = front.serve(g_front, front_handler)
        reply_private = PrivatePort(4)
        client.listen(reply_private)
        client.put(Message(dest=wire_front, reply=Port(reply_private.secret)))
        reply = client.poll(reply_private)
        assert reply.message.data == b"outer+inner"


class TestEgressAlwaysTransforms:
    def test_reply_field_one_wayed_on_wire(self, net):
        a, b = Nic(net), Nic(net)
        captured = []
        net.add_tap(captured.append)
        g = PrivatePort(9)
        wire = b.listen(g)
        reply_secret = PrivatePort(12345)
        a.put(Message(dest=wire, reply=Port(reply_secret.secret)))
        on_wire = captured[0].message
        # The wire must carry F(G'), never G' itself.
        assert on_wire.reply == reply_secret.public
        assert on_wire.reply != Port(reply_secret.secret)

    def test_counters(self, pair):
        a, b = pair
        g = PrivatePort(7)
        wire = b.listen(g)
        a.put(Message(dest=wire))
        assert a.sent == 1
        assert b.received == 1
