"""Tests for the simulated broadcast LAN."""

import pytest

from repro.core.ports import Port, PrivatePort
from repro.net.message import Message
from repro.net.network import Frame, SimNetwork
from repro.net.nic import Nic


@pytest.fixture
def net():
    return SimNetwork()


class TestTopology:
    def test_addresses_assigned_sequentially(self, net):
        a, b = Nic(net), Nic(net)
        assert a.address != b.address
        assert sorted(net._nics) == [a.address, b.address]

    def test_detach(self, net):
        a = Nic(net)
        net.detach(a.address)
        assert not net._nics


class TestSourceStamping:
    def test_source_is_sender_address(self, net):
        """§2.4's bedrock assumption: the network stamps the true source."""
        sender, receiver = Nic(net), Nic(net)
        g = PrivatePort(111)
        receiver.listen(g)
        sender.put(Message(dest=receiver.fbox.listen_port(Port(g.secret))))
        frame = receiver.poll(g)
        assert frame.src == sender.address

    def test_sender_cannot_choose_source(self, net):
        # The API simply offers no parameter for it: send() derives the
        # source from the NIC object.
        import inspect

        params = inspect.signature(net.send).parameters
        assert "src" not in params


class TestRouting:
    def test_delivery_by_admitted_port(self, net):
        a, b = Nic(net), Nic(net)
        g = PrivatePort(5)
        wire = b.listen(g)
        assert a.put(Message(dest=wire))
        assert b.poll(g) is not None

    def test_no_listener_means_drop(self, net):
        a = Nic(net)
        assert not a.put(Message(dest=Port(999)))
        assert net.frames_dropped == 1

    def test_unicast_by_machine(self, net):
        a, b, c = Nic(net), Nic(net), Nic(net)
        g = PrivatePort(5)
        wire_b = b.listen(g)
        c.listen(g)  # same port on two machines
        a.put(Message(dest=wire_b), dst_machine=b.address)
        assert b.poll(g) is not None
        assert c.poll(g) is None

    def test_unicast_to_missing_machine(self, net):
        a = Nic(net)
        assert not a.put(Message(dest=Port(1)), dst_machine=999)

    def test_round_robin_among_listeners(self, net):
        # Two servers GET the same port: the "hardware arbiter" rotates.
        a = Nic(net)
        s1, s2 = Nic(net), Nic(net)
        g = PrivatePort(5)
        wire = s1.listen(g)
        s2.listen(g)
        for _ in range(4):
            a.put(Message(dest=wire))
        assert len(s1._sinks[wire]) == len(s2._sinks[wire]) == 2


class TestTaps:
    def test_tap_sees_everything(self, net):
        a, b = Nic(net), Nic(net)
        captured = []
        net.add_tap(captured.append)
        g = PrivatePort(5)
        wire = b.listen(g)
        a.put(Message(dest=wire, data=b"observable"))
        assert len(captured) == 1
        assert captured[0].message.data == b"observable"
        assert captured[0].src == a.address

    def test_tap_sees_drops_too(self, net):
        a = Nic(net)
        captured = []
        net.add_tap(captured.append)
        a.put(Message(dest=Port(404)))
        assert len(captured) == 1


class TestBroadcast:
    def test_broadcast_reaches_handlers(self, net):
        a = Nic(net)
        heard = []
        for _ in range(3):
            nic = Nic(net)
            nic.on_broadcast(lambda frame, n=nic: heard.append(n.address))
        count = a.put_broadcast(Message(command=10))
        assert count == 3
        assert len(heard) == 3

    def test_broadcast_skips_sender(self, net):
        a = Nic(net)
        heard = []
        a.on_broadcast(lambda frame: heard.append(frame))
        a.put_broadcast(Message(command=10))
        assert heard == []

    def test_broadcast_without_handlers(self, net):
        a = Nic(net)
        Nic(net)  # no handler installed
        assert a.put_broadcast(Message(command=10)) == 0


class TestStats:
    def test_counters(self, net):
        a, b = Nic(net), Nic(net)
        g = PrivatePort(5)
        wire = b.listen(g)
        a.put(Message(dest=wire))
        a.put(Message(dest=Port(404)))
        stats = net.stats()
        assert stats["frames_sent"] == 2
        assert stats["frames_delivered"] == 1
        assert stats["frames_dropped"] == 1

    def test_reset(self, net):
        a = Nic(net)
        a.put(Message(dest=Port(1)))
        net.reset_stats()
        assert net.stats()["frames_sent"] == 0


class TestFrame:
    def test_frame_is_immutable(self, net):
        frame = Frame(src=1, dst_machine=None, message=Message())
        with pytest.raises(AttributeError):
            frame.src = 2
