"""Integration: the complete Fig. 1 scenario — clients, servers,
intruders, and F-boxes on one wire — plus the §2.3 message-count claims.

These tests ARE the ``fig1`` experiment of ``benchmarks/experiments.py``,
in miniature.
"""

import pytest

from repro.core.rights import Rights
from repro.crypto.randomsrc import RandomSource
from repro.errors import InvalidCapability
from repro.ipc.client import ServiceClient
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE
from repro.net.intruder import Intruder
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic

pytestmark = pytest.mark.integration


class SecretServer(ObjectServer):
    service_name = "secret keeper"

    @command(USER_BASE)
    def _reveal(self, ctx):
        entry, _ = ctx.lookup(Rights(0x01))
        return ctx.ok(data=entry.data)


@pytest.fixture
def fig1():
    """The exact cast of Fig. 1: client, server, intruder, one network."""
    net = SimNetwork()
    server = SecretServer(Nic(net), rng=RandomSource(seed=1)).start()
    client_nic = Nic(net)
    client = ServiceClient(
        client_nic,
        server.put_port,
        rng=RandomSource(seed=2),
        expect_signature=server.signature_image,
    )
    intruder = Intruder(net, rng=RandomSource(seed=3))
    return net, server, client_nic, client, intruder


class TestFig1:
    def test_normal_operation_with_intruder_present(self, fig1):
        _, server, _, client, intruder = fig1
        intruder.start_capture()
        intruder.attempt_get(server.put_port)
        cap = server.table.create(b"top secret payload")
        for _ in range(10):
            assert client.call(USER_BASE, capability=cap).data == (
                b"top secret payload"
            )
        assert intruder.intercepted_count(server.put_port) == 0

    def test_impersonation_campaign_fails_completely(self, fig1):
        """N impersonation attempts, 0 successes — the FIG1 headline."""
        net, server, _, client, intruder = fig1
        cap = server.table.create(b"payload")
        successes = 0
        for _ in range(50):
            intruder.attempt_get(server.put_port)
            client.call(USER_BASE, capability=cap)
            successes += intruder.intercepted_count(server.put_port)
        assert successes == 0

    def test_forged_replies_rejected_by_signature(self, fig1):
        net, server, _, client, intruder = fig1
        cap = server.table.create(b"genuine data")

        def race(frame):
            if not frame.message.is_reply and frame.message.command == USER_BASE:
                intruder.forge_reply(frame, data=b"POISONED")

        net.add_tap(race)
        for _ in range(10):
            assert client.call(USER_BASE, capability=cap).data == b"genuine data"

    def test_revocation_beats_a_thief(self, fig1):
        """A stolen capability dies the moment the owner refreshes."""
        net, server, _, client, intruder = fig1
        cap = server.table.create(b"loot")
        intruder.start_capture()
        client.call(USER_BASE, capability=cap)
        # Thief grabs the capability off the wire and can use it...
        stolen = next(
            f.message.capability
            for f in intruder.captured_requests()
            if f.message.capability
        )
        reply_private, _ = intruder.steal_capability(
            intruder.captured_requests()[0]
        )
        assert intruder.nic.poll(reply_private).message.status == 0
        # ...until the owner revokes.
        client.refresh(cap)
        intruder.captured.clear()
        thief_client = ServiceClient(
            intruder.nic, server.put_port, rng=RandomSource(seed=9)
        )
        with pytest.raises(InvalidCapability):
            thief_client.call(USER_BASE, capability=stolen)


class TestMessageEconomics:
    """§2.3's comparative claim: restricting rights costs a round-trip for
    schemes 1-2 but zero messages for scheme 3."""

    def test_server_restrict_costs_two_frames(self):
        net = SimNetwork()
        server = SecretServer(Nic(net), rng=RandomSource(seed=1)).start()
        client = ServiceClient(Nic(net), server.put_port, rng=RandomSource(seed=2))
        cap = server.table.create(b"x")
        net.reset_stats()
        client.restrict(cap, 0x01)
        assert net.frames_sent == 2  # request + reply

    def test_client_restrict_costs_zero_frames(self):
        from repro.core.schemes import CommutativeScheme

        net = SimNetwork()
        scheme = CommutativeScheme()
        server = SecretServer(Nic(net), scheme=scheme, rng=RandomSource(seed=1)).start()
        client_nic = Nic(net)
        client = ServiceClient(client_nic, server.put_port, rng=RandomSource(seed=2))
        cap = server.table.create(b"x")
        net.reset_stats()
        weaker = scheme.client_restrict(cap, Rights(0x01))
        assert net.frames_sent == 0  # fabricated entirely client-side
        # And the server honours it.
        assert client.call(USER_BASE, capability=weaker).data == b"x"

    def test_exact_copy_costs_zero_frames_any_scheme(self):
        """'The owner of an object can easily give an exact copy of its
        capability to another process by just sending it the bit pattern'
        — no server involvement."""
        net = SimNetwork()
        server = SecretServer(Nic(net), rng=RandomSource(seed=1)).start()
        cap = server.table.create(b"x")
        net.reset_stats()
        copied = type(cap).unpack(cap.pack())
        assert net.frames_sent == 0
        client = ServiceClient(Nic(net), server.put_port, rng=RandomSource(seed=2))
        assert client.call(USER_BASE, capability=copied).data == b"x"
