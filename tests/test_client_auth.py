"""Tests for sender authentication via the signature field (§2.2).

"The third [port field] can be used to authenticate the sender, since
only the true owner of the signature will know what number to put in the
third field to insure that the publicly-known F(S) comes out."
"""

import pytest

from repro.core.ports import PrivatePort
from repro.crypto.randomsrc import RandomSource
from repro.errors import SecurityError
from repro.ipc.client import ServiceClient
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE
from repro.net.network import SimNetwork
from repro.net.nic import Nic


class MembersOnly(ObjectServer):
    service_name = "members only"

    @command(USER_BASE)
    def _serve(self, ctx):
        return ctx.ok(data=b"welcome")


@pytest.fixture
def world():
    net = SimNetwork()
    alice_sig = PrivatePort.generate(RandomSource(seed=1))
    server = MembersOnly(Nic(net), rng=RandomSource(seed=2)).start()
    server.authorize_client(alice_sig.public)
    return net, server, alice_sig


class TestAuthorizedClient:
    def test_owner_of_secret_admitted(self, world):
        net, server, alice_sig = world
        alice = ServiceClient(
            Nic(net), server.put_port, rng=RandomSource(seed=3),
            signature=alice_sig,
        )
        assert alice.call(USER_BASE).data == b"welcome"

    def test_unsigned_request_refused(self, world):
        net, server, _ = world
        anonymous = ServiceClient(Nic(net), server.put_port,
                                  rng=RandomSource(seed=4))
        with pytest.raises(SecurityError):
            anonymous.call(USER_BASE)

    def test_wrong_signature_refused(self, world):
        net, server, _ = world
        mallory_sig = PrivatePort.generate(RandomSource(seed=5))
        mallory = ServiceClient(Nic(net), server.put_port,
                                rng=RandomSource(seed=6),
                                signature=mallory_sig)
        with pytest.raises(SecurityError):
            mallory.call(USER_BASE)

    def test_public_image_is_not_the_credential(self, world):
        """Knowing F(S) is useless: sending it puts F(F(S)) on the wire."""
        net, server, alice_sig = world
        from repro.core.ports import as_port

        impostor = ServiceClient(
            Nic(net), server.put_port, rng=RandomSource(seed=7),
            signature=as_port(alice_sig.public),
        )
        with pytest.raises(SecurityError):
            impostor.call(USER_BASE)

    def test_authorize_client_at_runtime(self, world):
        net, server, _ = world
        bob_sig = PrivatePort.generate(RandomSource(seed=8))
        bob = ServiceClient(Nic(net), server.put_port,
                            rng=RandomSource(seed=9), signature=bob_sig)
        with pytest.raises(SecurityError):
            bob.call(USER_BASE)
        server.authorize_client(bob_sig.public)
        assert bob.call(USER_BASE).data == b"welcome"

    def test_open_server_needs_no_signature(self):
        net = SimNetwork()
        server = MembersOnly(Nic(net), rng=RandomSource(seed=10)).start()
        client = ServiceClient(Nic(net), server.put_port,
                               rng=RandomSource(seed=11))
        assert client.call(USER_BASE).data == b"welcome"
