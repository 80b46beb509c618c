"""Tests for the Machine abstraction (kernel wiring)."""

import pytest

from repro.crypto.publickey import generate_keypair
from repro.crypto.randomsrc import RandomSource
from repro.kernel.machine import Machine
from repro.net.network import SimNetwork


@pytest.fixture
def net():
    return SimNetwork()


class TestMachine:
    def test_machine_has_memory_server(self, net):
        m = Machine(net, rng=RandomSource(seed=1))
        assert m.memory_server is not None
        assert m.memory_port == m.memory_server.put_port

    def test_machine_without_memory_server(self, net):
        m = Machine(net, rng=RandomSource(seed=1), with_memory_server=False)
        with pytest.raises(RuntimeError):
            m.memory_port

    def test_names_and_addresses(self, net):
        a = Machine(net, rng=RandomSource(seed=1), name="fileserver")
        b = Machine(net, rng=RandomSource(seed=2))
        assert a.name == "fileserver"
        assert b.name.startswith("machine-")
        assert a.nic.address != b.nic.address

    def test_locate_answers_for_memory_server(self, net):
        server = Machine(net, rng=RandomSource(seed=1))
        client = Machine(net, rng=RandomSource(seed=2), with_memory_server=False)
        assert client.locator.locate(server.memory_port) == server.nic.address


class TestAnnouncements:
    def test_announce_heard_by_others(self, net):
        server = Machine(net, rng=RandomSource(seed=1))
        listener = Machine(net, rng=RandomSource(seed=2))
        keys = generate_keypair(bits=256, rng=RandomSource(seed=3))
        server.announce("file service", server.memory_port, keys.public)
        heard = listener.heard_announcements["file service"]
        assert heard.put_port == server.memory_port
        assert heard.public_key == keys.public

    def test_announcer_does_not_hear_itself(self, net):
        server = Machine(net, rng=RandomSource(seed=1))
        Machine(net, rng=RandomSource(seed=2))
        keys = generate_keypair(bits=256, rng=RandomSource(seed=3))
        server.announce("svc", server.memory_port, keys.public)
        assert "svc" not in server.heard_announcements

    def test_garbage_announcement_ignored(self, net):
        from repro.kernel.machine import ANNOUNCE
        from repro.net.message import Message

        listener = Machine(net, rng=RandomSource(seed=1))
        sender = Machine(net, rng=RandomSource(seed=2))
        sender.nic.put_broadcast(Message(command=ANNOUNCE, data=b"\xff"))
        assert listener.heard_announcements == {}
        # Dropped, but counted, with the parse error kept.
        assert listener.announcements_dropped == 1
        assert listener.last_error is not None
        assert sender.announcements_dropped == 0
