"""Tests for link-level encryption (the last §2.4 alternative)."""

import pytest

from repro.core.ports import Port, PrivatePort
from repro.crypto.randomsrc import RandomSource
from repro.errors import SecurityError
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.softprot.linkcrypt import LinkCryptNode


@pytest.fixture
def linked():
    net = SimNetwork()
    a_nic, b_nic = Nic(net), Nic(net)
    a = LinkCryptNode(a_nic, rng=RandomSource(seed=1))
    b = LinkCryptNode(b_nic, rng=RandomSource(seed=2))
    key = RandomSource(seed=3).bytes(16)
    a.add_line(b_nic.address, b.endpoint[1], key)
    b.add_line(a_nic.address, a.endpoint[1], key)
    return net, a, b


class TestDelivery:
    def test_message_delivered_through_line(self, linked):
        net, a, b = linked
        g = PrivatePort(5)
        wire = b.nic.listen(g)
        assert a.put(Message(dest=wire, data=b"through the tunnel"),
                     dst_machine=b.nic.address)
        frame = b.nic.poll(g)
        assert frame is not None
        assert frame.message.data == b"through the tunnel"
        assert frame.src == a.nic.address

    def test_no_line_configured(self, linked):
        _, a, _ = linked
        with pytest.raises(SecurityError):
            a.put(Message(), dst_machine=9999)

    def test_reply_fields_still_one_wayed(self, linked):
        net, a, b = linked
        g = PrivatePort(5)
        wire = b.nic.listen(g)
        secret = PrivatePort(777)
        a.put(Message(dest=wire, reply=Port(secret.secret)),
              dst_machine=b.nic.address)
        frame = b.nic.poll(g)
        assert frame.message.reply == secret.public


class TestConfidentiality:
    def test_tap_sees_only_ciphertext(self, linked):
        net, a, b = linked
        captured = []
        net.add_tap(captured.append)
        g = PrivatePort(5)
        wire = b.nic.listen(g)
        plaintext = b"the capability bytes are in here"
        a.put(Message(dest=wire, data=plaintext), dst_machine=b.nic.address)
        assert captured
        for frame in captured:
            assert plaintext not in frame.message.data
            # Even the inner destination port is hidden inside the tunnel.
            assert frame.message.dest != wire

    def test_wrong_key_traffic_dropped(self, linked):
        net, a, b = linked
        # Reconfigure b's line with a different key: a's traffic garbles.
        b.add_line(a.nic.address, a.endpoint[1], RandomSource(seed=99).bytes(16))
        g = PrivatePort(5)
        wire = b.nic.listen(g)
        a.put(Message(dest=wire, data=b"x"), dst_machine=b.nic.address)
        assert b.nic.poll(g) is None
        # Dropped like hardware would, but counted, with the reason kept.
        assert b.line_drops == 1
        assert b.last_error is not None
        assert a.line_drops == 0

    def test_carrier_from_unknown_machine_ignored(self, linked):
        net, a, b = linked
        stranger = Nic(net)
        carrier = Message(dest=b.endpoint[1], command=30, data=b"\x00" * 32)
        stranger.put(carrier, dst_machine=b.nic.address)
        # No crash, nothing delivered.
        g = PrivatePort(5)
        b.nic.listen(g)
        assert b.nic.poll(g) is None
