"""Tests for §2.4 software protection: key matrix, sealing, caches.

The headline property: a capability captured on the wire and replayed
from a different source machine decrypts under the wrong matrix key and
is rejected — "No matter what the intruder does, he cannot trick the
server into using a decryption key that decrypts the capabilities to
make sense."
"""

import pytest

from repro.core.capability import Capability
from repro.core.ports import Port
from repro.core.rights import Rights
from repro.crypto.randomsrc import RandomSource
from repro.errors import (
    AmoebaError,
    InvalidCapability,
    NoSuchObject,
    SecurityError,
)
from repro.ipc.client import ServiceClient
from repro.ipc.locate import Locator, install_locate_responder
from repro.ipc.server import ObjectServer
from repro.ipc.stdops import STD_INFO
from repro.net.intruder import Intruder
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.softprot.cache import ClientCapabilityCache, ServerCapabilityCache
from repro.softprot.matrix import CapabilitySealer, KeyMatrix, MachineKeyView


def make_cap(check=b"\x11" * 6):
    return Capability(port=Port(42), object=7, rights=Rights(0x0F), check=check)


class TestKeyMatrix:
    def test_keys_are_per_direction(self):
        matrix = KeyMatrix(rng=RandomSource(seed=1))
        assert matrix.key(1, 2) != matrix.key(2, 1)

    def test_keys_stable(self):
        matrix = KeyMatrix(rng=RandomSource(seed=1))
        assert matrix.key(1, 2) == matrix.key(1, 2)

    def test_view_knows_row_and_column_only(self):
        matrix = KeyMatrix(rng=RandomSource(seed=1))
        view = matrix.view(5)
        view.key(5, 9)
        view.key(9, 5)
        with pytest.raises(SecurityError):
            view.key(1, 2)

    def test_set_key_validates_length(self):
        matrix = KeyMatrix(rng=RandomSource(seed=1))
        with pytest.raises(ValueError):
            matrix.set_key(1, 2, b"short")


class TestSealer:
    @pytest.fixture
    def sealers(self):
        matrix = KeyMatrix(rng=RandomSource(seed=2))
        client = CapabilitySealer(matrix.view(1))
        server = CapabilitySealer(matrix.view(2))
        return client, server

    def test_seal_unseal_roundtrip(self, sealers):
        client, server = sealers
        cap = make_cap()
        sealed = client.seal(cap, dst=2)
        assert server.unseal(sealed, src=1) == cap

    def test_sealed_bytes_hide_the_capability(self, sealers):
        client, _ = sealers
        cap = make_cap()
        sealed = client.seal(cap, dst=2)
        assert cap.check not in sealed
        assert cap.port.to_bytes() not in sealed

    def test_wrong_source_decrypts_to_garbage(self, sealers):
        client, server = sealers
        cap = make_cap()
        sealed = client.seal(cap, dst=2)
        # Replayed from machine 3: key M[3][2] is wrong.  The result is
        # either structural garbage or a semantically wrong capability.
        try:
            garbled = server.unseal(sealed, src=3)
        except InvalidCapability:
            return
        assert garbled != cap

    def test_extended_capabilities_seal_too(self, sealers):
        client, server = sealers
        cap = make_cap(check=b"\x77" * 64)
        sealed = client.seal(cap, dst=2)
        assert server.unseal(sealed, src=1) == cap

    def test_seal_message_moves_all_capabilities(self, sealers):
        client, server = sealers
        header = make_cap(b"\x01" * 6)
        extra = make_cap(b"\x02" * 6)
        message = Message(capability=header, extra_caps=(extra,), data=b"d")
        sealed = client.seal_message(message, dst=2)
        assert sealed.capability is None
        assert sealed.extra_caps == ()
        assert sealed.sealed_caps
        back = server.unseal_message(sealed, src=1)
        assert back.capability == header
        assert back.extra_caps == (extra,)
        assert back.data == b"d"

    def test_seal_message_without_caps_is_identity(self, sealers):
        client, _ = sealers
        message = Message(data=b"nothing to seal")
        assert client.seal_message(message, dst=2) is message

    def test_extra_caps_only(self, sealers):
        client, server = sealers
        extra = make_cap(b"\x03" * 6)
        message = Message(extra_caps=(extra,))
        back = server.unseal_message(client.seal_message(message, dst=2), src=1)
        assert back.capability is None
        assert back.extra_caps == (extra,)

    def test_truncated_blob_rejected(self, sealers):
        _, server = sealers
        with pytest.raises(InvalidCapability):
            server.unseal_message(Message(sealed_caps=b"\x01"), src=1)


class TestCaches:
    def test_client_cache_skips_cipher(self):
        matrix = KeyMatrix(rng=RandomSource(seed=3))
        sealer = CapabilitySealer(
            matrix.view(1), client_cache=ClientCapabilityCache()
        )
        cap = make_cap()
        sealer.seal(cap, dst=2)
        ops_after_first = sealer.cipher_ops
        sealer.seal(cap, dst=2)
        assert sealer.cipher_ops == ops_after_first
        assert sealer.client_cache.hits == 1

    def test_server_cache_skips_cipher(self):
        matrix = KeyMatrix(rng=RandomSource(seed=3))
        client = CapabilitySealer(matrix.view(1))
        server = CapabilitySealer(
            matrix.view(2), server_cache=ServerCapabilityCache()
        )
        sealed = client.seal(make_cap(), dst=2)
        server.unseal(sealed, src=1)
        ops = server.cipher_ops
        server.unseal(sealed, src=1)
        assert server.cipher_ops == ops

    def test_cache_keyed_by_destination(self):
        matrix = KeyMatrix(rng=RandomSource(seed=3))
        sealer = CapabilitySealer(
            matrix.view(1), client_cache=ClientCapabilityCache()
        )
        cap = make_cap()
        assert sealer.seal(cap, dst=2) != sealer.seal(cap, dst=3)
        assert sealer.cipher_ops == 2

    def test_invalidate_object_purges_both_caches(self):
        matrix = KeyMatrix(rng=RandomSource(seed=3))
        client = CapabilitySealer(
            matrix.view(1), client_cache=ClientCapabilityCache()
        )
        server = CapabilitySealer(
            matrix.view(2), server_cache=ServerCapabilityCache()
        )
        cap = make_cap()
        other = Capability(
            port=Port(42), object=8, rights=Rights(0x0F), check=b"\x22" * 6
        )
        sealed = client.seal(cap, dst=2)
        client.seal(other, dst=2)
        server.unseal(sealed, src=1)
        assert client.invalidate_object(cap.port, cap.object) == 1
        assert server.invalidate_object(cap.port, cap.object) == 1
        # The revoked object's triples are gone; unrelated ones remain.
        assert len(client.client_cache) == 1
        assert len(server.server_cache) == 0
        # Re-sealing and re-unsealing must hit the cipher again.
        ops = client.cipher_ops
        client.seal(cap, dst=2)
        assert client.cipher_ops == ops + 1


class TestRevokeThenReplay:
    """Regression: cached (sealed, source) triples must not survive
    ``ObjectTable.refresh`` — the cache exists to *accelerate* the §2.4
    mechanism, never to outlive a revocation."""

    def test_table_refresh_purges_server_cache(self):
        from repro.core.registry import ObjectTable
        from repro.core.schemes import XorOneWayScheme

        matrix = KeyMatrix(rng=RandomSource(seed=11))
        client = CapabilitySealer(
            matrix.view(1), client_cache=ClientCapabilityCache()
        )
        server = CapabilitySealer(
            matrix.view(2), server_cache=ServerCapabilityCache()
        )
        table = ObjectTable(
            XorOneWayScheme(), Port(42), rng=RandomSource(seed=12)
        )
        # Mirror ObjectServer's wiring: the table announces dead secrets.
        table.on_revocation(
            lambda port, number, _gen: server.invalidate_object(
                port, number
            )
        )
        cap = table.create("precious")
        sealed = client.seal(cap, dst=2)
        assert server.unseal(sealed, src=1) == cap  # now cached
        table.refresh(cap)
        # The replayed blob must not short-circuit through the cache …
        assert server.server_cache.lookup(sealed, 1) is None
        ops = server.cipher_ops
        replayed = server.unseal(sealed, src=1)
        assert server.cipher_ops == ops + 1  # went through real decryption
        # … and the table rejects what it decrypts to.
        with pytest.raises(InvalidCapability):
            table.lookup(replayed)

    def test_table_destroy_and_age_purge_server_cache(self):
        from repro.core.registry import ObjectTable
        from repro.core.schemes import XorOneWayScheme

        matrix = KeyMatrix(rng=RandomSource(seed=13))
        client = CapabilitySealer(matrix.view(1))
        server = CapabilitySealer(
            matrix.view(2), server_cache=ServerCapabilityCache()
        )
        table = ObjectTable(
            XorOneWayScheme(),
            Port(42),
            rng=RandomSource(seed=14),
            default_lifetime=1,
        )
        table.on_revocation(
            lambda port, number, _gen: server.invalidate_object(
                port, number
            )
        )
        doomed = table.create("destroyed")
        aged = table.create("aged out")
        for cap in (doomed, aged):
            server.unseal(client.seal(cap, dst=2), src=1)
        assert len(server.server_cache) == 2
        table.destroy(doomed)
        assert len(server.server_cache) == 1
        table.age()  # first sweep expires "aged out" (lifetime=1)
        assert len(server.server_cache) == 0

    def test_service_client_refresh_purges_client_cache(self, sealed_world):
        _, server, client, _ = sealed_world
        cap = server.table.create("revocable")
        client.info(cap)  # seals the capability -> client cache entry
        cache = client.sealer.client_cache
        assert cache.lookup(cap, server.node.address) is not None
        fresh = client.refresh(cap)
        assert cache.lookup(cap, server.node.address) is None
        # The stale capability is dead end to end; the fresh one works.
        with pytest.raises(InvalidCapability):
            client.info(cap)
        assert "object" in client.info(fresh)

    def test_server_cache_purged_end_to_end(self, sealed_world):
        """The full replay: client uses a capability (server caches its
        sealed form), the owner refreshes, the identical sealed blob is
        replayed — the server must reject it."""
        net, server, client, intruder = sealed_world
        cap = server.table.create("loot")
        intruder.start_capture()
        client.info(cap)
        sealed_requests = [
            f
            for f in intruder.captured_requests()
            if f.message.sealed_caps and f.message.command == STD_INFO
        ]
        assert sealed_requests
        client.refresh(cap)
        # Replay the captured sealed request from the *original* client
        # machine (the strongest replay: the matrix key is right, only
        # the secret has died).
        frame = sealed_requests[0]
        reply_private = Port(0x00BEEF00)
        client.node.listen(reply_private)
        replay = frame.message.copy(reply=reply_private)
        client.node.put(replay, dst_machine=server.node.address)
        got = client.node.poll(reply_private)
        assert got is not None and got.message.status != 0


@pytest.fixture
def sealed_world():
    """A matrix-protected client/server pair plus an intruder."""
    net = SimNetwork()
    matrix = KeyMatrix(rng=RandomSource(seed=4))

    server_nic = Nic(net)
    install_locate_responder(server_nic)
    server = ObjectServer(
        server_nic,
        rng=RandomSource(seed=5),
        sealer=CapabilitySealer(
            matrix.view(server_nic.address),
            server_cache=ServerCapabilityCache(),
        ),
        require_sealed=True,
    ).start()

    client_nic = Nic(net)
    client = ServiceClient(
        client_nic,
        server.put_port,
        rng=RandomSource(seed=6),
        locator=Locator(client_nic, rng=RandomSource(seed=7)),
        sealer=CapabilitySealer(
            matrix.view(client_nic.address),
            client_cache=ClientCapabilityCache(),
        ),
        expect_signature=server.signature_image,
    )
    intruder = Intruder(net, rng=RandomSource(seed=8))
    return net, server, client, intruder


class TestSealedRPC:
    def test_sealed_round_trip(self, sealed_world):
        _, server, client, _ = sealed_world
        cap = server.table.create("sealed object")
        assert "object" in client.info(cap)

    def test_sealed_reply_capabilities(self, sealed_world):
        _, server, client, _ = sealed_world
        cap = server.table.create("x")
        weak = client.restrict(cap, 0x01)
        assert weak.rights == Rights(0x01)
        assert "object" in client.info(weak)

    def test_plaintext_capability_refused(self, sealed_world):
        net, server, _, _ = sealed_world
        bare_client_nic = Nic(net)
        bare = ServiceClient(
            bare_client_nic, server.put_port, rng=RandomSource(seed=9)
        )
        cap = server.table.create("x")
        with pytest.raises(InvalidCapability):
            bare.call(STD_INFO, capability=cap)

    def test_stolen_sealed_capability_useless(self, sealed_world):
        """The §2.4 replay defence, end to end."""
        net, server, client, intruder = sealed_world
        cap = server.table.create("loot")
        intruder.start_capture()
        client.info(cap)
        sealed_requests = [
            f
            for f in intruder.captured_requests()
            if f.message.sealed_caps and f.message.command == STD_INFO
        ]
        assert sealed_requests, "expected to capture the sealed request"
        # Replay with the intruder's own reply port (the full §2.4 attack).
        reply_private, sent = intruder.steal_capability(sealed_requests[0])
        frame = intruder.nic.poll(reply_private)
        # The server decrypted with M[intruder][server]: garbage.  It
        # must NOT have performed the operation.
        assert frame is None or frame.message.status != 0

    def test_intruder_sees_only_ciphertext(self, sealed_world):
        net, server, client, intruder = sealed_world
        cap = server.table.create("loot")
        intruder.start_capture()
        client.info(cap)
        for frame in intruder.captured_requests():
            if frame.message.sealed_caps:
                assert cap.check not in frame.message.sealed_caps

    def test_server_without_sealer_rejects_sealed(self):
        net = SimNetwork()
        matrix = KeyMatrix(rng=RandomSource(seed=1))
        server_nic = Nic(net)
        install_locate_responder(server_nic)
        server = ObjectServer(server_nic, rng=RandomSource(seed=2)).start()
        client_nic = Nic(net)
        client = ServiceClient(
            client_nic,
            server.put_port,
            rng=RandomSource(seed=3),
            locator=Locator(client_nic, rng=RandomSource(seed=4)),
            sealer=CapabilitySealer(matrix.view(client_nic.address)),
        )
        cap = server.table.create("x")
        with pytest.raises(AmoebaError):
            client.call(STD_INFO, capability=cap)

    def test_sealer_requires_locator(self):
        net = SimNetwork()
        matrix = KeyMatrix(rng=RandomSource(seed=1))
        nic = Nic(net)
        with pytest.raises(ValueError):
            ServiceClient(
                nic,
                Port(1),
                sealer=CapabilitySealer(matrix.view(nic.address)),
            )
