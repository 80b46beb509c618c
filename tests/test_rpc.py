"""Tests for the blocking transaction primitive."""

import pytest

from repro.core.ports import NULL_PORT, Port, PrivatePort
from repro.crypto.randomsrc import RandomSource
from repro.errors import PortNotLocated, RPCTimeout
from repro.ipc.rpc import trans
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic


@pytest.fixture
def net():
    return SimNetwork()


def echo_server(net, g_secret=1111):
    nic = Nic(net)
    g = PrivatePort(g_secret)

    def handler(frame):
        nic.put(frame.message.reply_to(data=frame.message.data[::-1]))

    wire = nic.serve(g, handler)
    return nic, wire


class TestTrans:
    def test_roundtrip(self, net):
        _, wire = echo_server(net)
        client = Nic(net)
        reply = trans(client, wire, Message(data=b"abc"), rng=RandomSource(seed=1))
        assert reply.data == b"cba"
        assert reply.is_reply

    def test_no_server_raises_port_not_located(self, net):
        client = Nic(net)
        with pytest.raises(PortNotLocated):
            trans(client, Port(404), Message(), rng=RandomSource(seed=1))

    def test_server_that_never_replies_times_out(self, net):
        nic = Nic(net)
        g = PrivatePort(5)
        wire = nic.serve(g, lambda frame: None)  # swallow requests
        client = Nic(net)
        with pytest.raises(RPCTimeout):
            trans(client, wire, Message(), rng=RandomSource(seed=1), timeout=0.05)

    def test_fresh_reply_port_per_transaction(self, net):
        seen = []
        nic = Nic(net)
        g = PrivatePort(5)

        def handler(frame):
            seen.append(frame.message.reply)
            nic.put(frame.message.reply_to())

        wire = nic.serve(g, handler)
        client = Nic(net)
        rng = RandomSource(seed=2)
        for _ in range(10):
            trans(client, wire, Message(), rng=rng)
        assert len(set(seen)) == 10

    def test_reply_port_unlistened_after_transaction(self, net):
        nic = Nic(net)
        g = PrivatePort(5)
        reply_ports = []

        def handler(frame):
            reply_ports.append(frame.message.reply)
            nic.put(frame.message.reply_to())

        wire = nic.serve(g, handler)
        client = Nic(net)
        trans(client, wire, Message(), rng=RandomSource(seed=3))
        # A late duplicate reply must find nobody listening.
        late = Message(dest=reply_ports[0], is_reply=True)
        assert not nic.put(late)

    def test_request_fields_set(self, net):
        captured = []
        nic = Nic(net)
        g = PrivatePort(5)

        def handler(frame):
            captured.append(frame.message)
            nic.put(frame.message.reply_to())

        wire = nic.serve(g, handler)
        client = Nic(net)
        trans(client, wire, Message(command=9, offset=7, size=3),
              rng=RandomSource(seed=4))
        request = captured[0]
        assert request.dest == wire
        assert not request.is_reply
        assert (request.command, request.offset, request.size) == (9, 7, 3)
        assert request.reply != NULL_PORT

    def test_client_signature_transmitted(self, net):
        captured = []
        nic = Nic(net)
        g = PrivatePort(5)

        def handler(frame):
            captured.append(frame.message.signature)
            nic.put(frame.message.reply_to())

        wire = nic.serve(g, handler)
        client = Nic(net)
        client_sig = PrivatePort(777)
        trans(client, wire, Message(), rng=RandomSource(seed=5),
              signature=client_sig)
        # The server sees F(S): it can compare against the client's
        # published signature image to authenticate the sender.
        assert captured[0] == client_sig.public

    def test_unicast_dst_machine(self, net):
        nic, wire = echo_server(net)
        client = Nic(net)
        reply = trans(client, wire, Message(data=b"x"),
                      rng=RandomSource(seed=6), dst_machine=nic.address)
        assert reply.data == b"x"

    def test_unicast_to_wrong_machine_times_out(self, net):
        nic, wire = echo_server(net)
        other = Nic(net)  # not listening on the port
        client = Nic(net)
        with pytest.raises(RPCTimeout):
            trans(client, wire, Message(), rng=RandomSource(seed=7),
                  dst_machine=other.address, timeout=0.05)


class TestPollBlockingFeatureDetect:
    """The wait asks the station to wait and never probes how: an old
    TypeError probe swallowed genuine TypeErrors raised inside delivery
    and misreported them as RPCTimeout."""

    def test_delivery_typeerror_propagates(self):
        # A station whose timed poll path itself raises TypeError (a real
        # bug) must surface that bug, not a bogus timeout.
        from repro.net.sched import VirtualClock

        net = SimNetwork(clock=VirtualClock())  # the Nic that polls timed

        class BuggyNode(Nic):
            def poll_wire(self, wire_port, timeout=None):
                if timeout is not None:
                    raise TypeError("broken delivery internals")
                return super().poll_wire(wire_port)

        nic = Nic(net)
        g = PrivatePort(5)
        nic.serve(g, lambda frame: None)  # swallow: forces the slow path
        client = BuggyNode(net)
        with pytest.raises(TypeError, match="broken delivery internals"):
            trans(client, nic.fbox.listen_port(Port(5)), Message(),
                  rng=RandomSource(seed=8), timeout=0.05)
