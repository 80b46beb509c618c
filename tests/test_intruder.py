"""Tests for the Fig. 1 threat model: what intruders can and cannot do.

These are the paper's security arguments, run as code.  Where the bare
F-box scheme has a known residual weakness (bearer-capability theft by a
wiretapper), the test asserts the weakness *exists* — that is what
motivates §2.4 — and the matrix tests show it closed.
"""

import pytest

from repro.core.ports import Port, PrivatePort
from repro.crypto.randomsrc import RandomSource
from repro.ipc.rpc import trans
from repro.ipc.stdops import STD_TOUCH, USER_BASE
from repro.net.intruder import Intruder
from repro.net.message import Message
from repro.testing.world import EchoServer, World


@pytest.fixture
def world():
    w = World("synchronous")
    server_nic, client_nic = w.node(), w.node()
    server = EchoServer(server_nic, rng=RandomSource(seed=1)).start()
    intruder = Intruder(w.net, rng=RandomSource(seed=2))
    return w.net, server_nic, client_nic, server, intruder


class TestImpersonation:
    def test_get_on_put_port_listens_elsewhere(self, world):
        """'An intruder doing GET(P) will simply cause his F-box to listen
        to the (useless) port F(P).'"""
        _, _, _, server, intruder = world
        wire = intruder.attempt_get(server.put_port)
        assert wire != server.put_port

    def test_intruder_intercepts_nothing(self, world):
        net, _, client_nic, server, intruder = world
        intruder.attempt_get(server.put_port)
        client_rng = RandomSource(seed=3)
        for i in range(20):
            reply = trans(
                client_nic,
                server.put_port,
                Message(command=USER_BASE, data=b"secret %d" % i),
                rng=client_rng,
            )
            assert reply.data == b"secret %d" % i
        assert intruder.intercepted_count(server.put_port) == 0

    def test_server_still_receives_everything(self, world):
        _, _, client_nic, server, intruder = world
        intruder.attempt_get(server.put_port)
        for _ in range(5):
            trans(
                client_nic,
                server.put_port,
                Message(command=USER_BASE),
                rng=RandomSource(seed=4),
            )
        assert server.request_counts[USER_BASE] == 5


class TestReplyForgery:
    def test_unsigned_clients_can_be_fooled(self, world):
        """Reply forgery IS deliverable without signatures — this is the
        gap the §2.2 signature mechanism exists to close."""
        net, _, client_nic, server, intruder = world
        intruder.start_capture()
        trans(client_nic, server.put_port, Message(command=USER_BASE),
              rng=RandomSource(seed=5))
        request = intruder.captured_requests()[0]
        # Forge a reply to the (already answered) request's reply port:
        # nobody listens any more, so it drops — but re-arm the port and
        # the forgery lands.
        reply_private = PrivatePort.generate(RandomSource(seed=6))
        client_nic.listen(reply_private)
        hijack = request.message.copy(reply=Port(reply_private.secret))
        # The client sends its own request; intruder races the reply.
        fresh = client_nic.fbox.transform_egress(hijack)
        intruder.forge_reply(
            type("F", (), {"message": fresh})(), data=b"FORGED"
        )
        frame = client_nic.poll(reply_private)
        assert frame is not None
        assert frame.message.data == b"FORGED"

    def test_signature_checking_rejects_forgery(self, world):
        net, _, client_nic, server, intruder = world
        intruder.start_capture()

        # Arrange a race: tap the request as it is sent and immediately
        # inject a forged reply, so the client sees the forgery first
        # and the genuine (signed) reply second.
        def race(frame):
            if not frame.message.is_reply and frame.message.command == USER_BASE:
                intruder.forge_reply(frame, data=b"FORGED")

        net.add_tap(race)
        reply = trans(
            client_nic,
            server.put_port,
            Message(command=USER_BASE, data=b"genuine"),
            rng=RandomSource(seed=7),
            expect_signature=server.signature_image,
        )
        assert reply.data == b"genuine"

    def test_intruder_cannot_produce_valid_signature(self, world):
        net, _, client_nic, server, intruder = world
        seen = []
        net.add_tap(lambda f: seen.append(f.message.signature))
        trans(
            client_nic,
            server.put_port,
            Message(command=USER_BASE),
            rng=RandomSource(seed=8),
            expect_signature=server.signature_image,
        )
        # The genuine reply's wire signature is F(S).
        assert server.signature_image in seen
        # The intruder knows F(S) but must find S to sign: sending F(S)
        # as the signature field yields F(F(S)) on the wire.
        forged = intruder.nic.fbox.transform_egress(
            Message(signature=server.signature_image)
        )
        assert forged.signature != server.signature_image


class TestWiretapping:
    def test_taps_see_capability_bytes(self, world):
        """Bearer tokens on a broadcast wire ARE stealable — the residual
        risk §2.4's matrix encryption addresses."""
        net, _, client_nic, server, intruder = world
        cap = server.table.create("loot")
        intruder.start_capture()
        trans(
            client_nic,
            server.put_port,
            Message(command=2, capability=cap, size=0x01),  # STD_RESTRICT
            rng=RandomSource(seed=9),
        )
        stolen = [
            f.message.capability
            for f in intruder.captured_requests()
            if f.message.capability is not None
        ]
        assert stolen and stolen[0] == cap

    def test_stolen_capability_usable_without_matrix(self, world):
        net, _, client_nic, server, intruder = world
        cap = server.table.create("loot")
        intruder.start_capture()
        trans(
            client_nic,
            server.put_port,
            Message(command=STD_TOUCH, capability=cap),
            rng=RandomSource(seed=10),
        )
        request = intruder.captured_requests()[0]
        reply_private, sent = intruder.steal_capability(request)
        assert sent
        frame = intruder.nic.poll(reply_private)
        assert frame is not None and frame.message.status == 0


class TestReplay:
    def test_replayed_request_reaches_server(self, world):
        # Replay of a request through the intruder's F-box preserves the
        # destination and capability (the operation repeats!) ...
        net, _, client_nic, server, intruder = world
        intruder.start_capture()
        trans(client_nic, server.put_port, Message(command=USER_BASE),
              rng=RandomSource(seed=11))
        before = server.request_counts[USER_BASE]
        intruder.replay(intruder.captured_requests()[0])
        assert server.request_counts[USER_BASE] == before + 1

    def test_replayed_reply_port_corrupted(self, world):
        # ... but the reply port is double-one-wayed, so the replayer
        # cannot see the answer.
        net, _, client_nic, server, intruder = world
        intruder.start_capture()
        trans(client_nic, server.put_port, Message(command=USER_BASE),
              rng=RandomSource(seed=12))
        request = intruder.captured_requests()[0]
        on_wire_reply = request.message.reply
        replayed = intruder.nic.fbox.transform_egress(request.message)
        assert replayed.reply != on_wire_reply
