"""Fuzz the wire codecs: hostile bytes must map to clean protocol errors.

A server that crashes (rather than erroring) on a malformed frame is a
denial-of-service hole; these property tests pin the failure mode of
every unpack path to the documented exceptions.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.capability import Capability
from repro.core.ports import Port
from repro.errors import AmoebaError, BadRequest, MalformedCapability
from repro.net.message import Message
from repro.softprot.boot import Announcement


class TestCapabilityFuzz:
    @given(st.binary(max_size=200))
    @settings(max_examples=300)
    def test_unpack_never_crashes(self, blob):
        try:
            cap = Capability.unpack(blob)
        except MalformedCapability:
            return
        except ValueError:
            return  # port/rights range errors from hostile field values
        # Anything that parses must re-pack to the identical bytes.
        assert cap.pack() == blob

    @given(st.binary(min_size=16, max_size=16))
    def test_any_16_bytes_parse(self, blob):
        cap = Capability.unpack(blob)
        assert cap.pack() == blob


class TestMessageFuzz:
    @given(st.binary(max_size=300))
    @settings(max_examples=300)
    def test_unpack_never_crashes(self, blob):
        try:
            message = Message.unpack(blob)
        except (BadRequest, MalformedCapability, ValueError):
            return
        assert message.pack() == blob

    @given(st.binary(max_size=120))
    @settings(max_examples=100)
    def test_mutated_valid_message(self, mutation):
        """Splice random bytes into a valid frame: parse or clean error."""
        base = bytearray(
            Message(dest=Port(1), command=7, data=b"payload bytes").pack()
        )
        for i, b in enumerate(mutation):
            base[i % len(base)] ^= b
        try:
            Message.unpack(bytes(base))
        except (BadRequest, MalformedCapability, ValueError):
            pass

    def test_server_survives_garbage_frames(self):
        """End to end: a server fed undecodable/hostile requests keeps
        answering well-formed ones."""
        from repro.crypto.randomsrc import RandomSource
        from repro.ipc.client import ServiceClient
        from repro.ipc.server import ObjectServer
        from repro.net.network import SimNetwork
        from repro.net.nic import Nic

        net = SimNetwork()
        server = ObjectServer(Nic(net), rng=RandomSource(seed=1)).start()
        hostile = Nic(net)
        rng = RandomSource(seed=2)
        for _ in range(50):
            hostile.put(
                Message(
                    dest=server.put_port,
                    command=rng.randint(0, 65535),
                    offset=rng.randint(0, 2**32),
                    size=rng.randint(0, 2**16),
                    data=rng.bytes(rng.randint(0, 64)),
                )
            )
        cap = server.table.create("still here")
        client = ServiceClient(Nic(net), server.put_port, rng=RandomSource(seed=3))
        client.touch(cap)


class TestAnnouncementFuzz:
    @given(st.binary(max_size=100))
    @settings(max_examples=200)
    def test_unpack_never_crashes_uncontrolled(self, blob):
        try:
            Announcement.unpack(blob)
        except (AmoebaError, ValueError, UnicodeDecodeError, IndexError):
            pass
