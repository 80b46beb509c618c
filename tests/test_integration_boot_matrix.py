"""Integration: the complete §2.4 deployment, announce to sealed RPC.

The full software-protection lifecycle over the simulated wire:

1. the file server machine boots and broadcasts its announcement
   (name, put-port, public key);
2. a client machine hears it and runs the three-step bootstrap exchange
   *over the network* to establish matrix keys;
3. matrix-sealed RPC proceeds; an intruder who captured everything —
   including the bootstrap traffic — can neither recover the keys nor
   replay the sealed capabilities.
"""

import pytest

from repro.core.ports import PrivatePort, as_port
from repro.core.rights import Rights
from repro.crypto.publickey import generate_keypair
from repro.crypto.randomsrc import RandomSource
from repro.ipc.client import ServiceClient
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE
from repro.net.intruder import Intruder
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.kernel.machine import Machine
from repro.softprot.boot import BootProtocol
from repro.softprot.cache import ClientCapabilityCache, ServerCapabilityCache
from repro.softprot.matrix import CapabilitySealer, KeyMatrix

pytestmark = pytest.mark.integration

#: Kernel-level command for bootstrap key exchange frames.
BOOT_KEYEX = 22


class VaultServer(ObjectServer):
    service_name = "vault"

    @command(USER_BASE, needs=Rights(0x01))
    def _read(self, ctx):
        return ctx.ok(data=ctx.entry.data)


@pytest.fixture(scope="module")
def server_keys():
    return generate_keypair(bits=512, rng=RandomSource(seed=1906))


def test_full_lifecycle(server_keys):
    net = SimNetwork()
    server_machine = Machine(net, rng=RandomSource(seed=1), name="vault")
    client_machine = Machine(net, rng=RandomSource(seed=2), name="user",
                             with_memory_server=False)
    server_at = server_machine.nic.address
    client_at = client_machine.nic.address
    intruder = Intruder(net, rng=RandomSource(seed=3))
    intruder.start_capture()

    server_matrix = KeyMatrix(rng=RandomSource(seed=4))
    client_matrix = KeyMatrix(rng=RandomSource(seed=5))

    # --- step 0: the server answers key-exchange requests on a known port
    keyex_port = PrivatePort.generate(RandomSource(seed=6))
    server_rng = RandomSource(seed=7)

    def keyex_handler(frame):
        reply_blob, forward, reverse = BootProtocol.server_accept(
            server_keys, frame.message.data, server_rng
        )
        server_matrix.set_key(frame.src, server_at, forward)
        server_matrix.set_key(server_at, frame.src, reverse)
        server_machine.nic.put(frame.message.reply_to(data=reply_blob),
                               dst_machine=frame.src)

    keyex_wire = server_machine.nic.serve(keyex_port, keyex_handler)

    # --- step 1: broadcast announcement ---------------------------------
    server_machine.announce("vault", keyex_wire, server_keys.public)
    heard = client_machine.heard_announcements["vault"]
    assert heard.public_key == server_keys.public

    # --- step 2: the client runs the handshake over the wire -------------
    client_rng = RandomSource(seed=8)
    offer, forward = BootProtocol.client_offer(heard.public_key, client_rng)
    reply_private = PrivatePort.generate(client_rng)
    client_machine.nic.listen(reply_private)
    client_machine.nic.put(
        Message(dest=heard.put_port, command=BOOT_KEYEX, data=offer,
                reply=as_port(reply_private)),
    )
    frame = client_machine.nic.poll(reply_private)
    assert frame is not None
    reverse = BootProtocol.client_confirm(heard.public_key, forward,
                                          frame.message.data)
    client_matrix.set_key(client_at, server_at, forward)
    client_matrix.set_key(server_at, client_at, reverse)

    # Both sides now agree without ever putting a key on the wire.
    assert (client_matrix.key(client_at, server_at)
            == server_matrix.key(client_at, server_at))

    # --- step 3: matrix-sealed RPC ----------------------------------------
    vault = VaultServer(
        server_machine.nic,
        rng=RandomSource(seed=9),
        sealer=CapabilitySealer(
            server_matrix.view(server_at),
            server_cache=ServerCapabilityCache(),
        ),
        require_sealed=True,
    ).start()
    gold = vault.table.create(b"the crown jewels")
    client = ServiceClient(
        client_machine.nic,
        vault.put_port,
        rng=RandomSource(seed=10),
        locator=client_machine.locator,
        sealer=CapabilitySealer(
            client_matrix.view(client_at),
            client_cache=ClientCapabilityCache(),
        ),
        expect_signature=vault.signature_image,
    )
    assert client.call(USER_BASE, capability=gold).data == b"the crown jewels"

    # --- the intruder captured every frame and still loses ----------------
    # It saw: the announcement (public), the RSA-encrypted offer, the
    # key-sealed reply, and sealed capabilities.  Replaying the sealed
    # request from its own machine fails.
    sealed = [f for f in intruder.captured_requests() if f.message.sealed_caps]
    assert sealed, "the sealed request must have crossed the wire"
    assert gold.check not in sealed[0].message.sealed_caps
    reply_port, _ = intruder.steal_capability(sealed[0])
    answer = intruder.nic.poll(reply_port)
    assert answer is None or answer.message.status != 0

    # And the raw conventional keys never crossed the wire.
    for frame in intruder.captured:
        payload = frame.message.data
        assert forward not in payload
        assert reverse not in payload
