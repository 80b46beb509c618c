"""Tests for the flat file server (§3.3), both backends."""

import pytest

from repro.crypto.randomsrc import RandomSource
from repro.disk.virtualdisk import VirtualDisk
from repro.errors import NoSuchObject, OutOfSpace, PermissionDenied
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.servers.block import BlockClient, BlockServer
from repro.servers.flatfile import R_READ, R_WRITE, FlatFileClient, FlatFileServer


def make_world(backend):
    return blocks_world(backend)[:4]


def blocks_world(backend):
    """:func:`make_world` and its block server (None in memory)."""
    net = SimNetwork()
    server_nic = Nic(net)
    block_client = block_server = disk = None
    if backend == "block":
        disk = VirtualDisk(n_blocks=256, block_size=64)
        block_server = BlockServer(
            Nic(net), disk=disk, rng=RandomSource(seed=1)
        ).start()
        block_client = BlockClient(
            server_nic, block_server.put_port, rng=RandomSource(seed=2)
        )
    server = FlatFileServer(
        server_nic, block_client=block_client, rng=RandomSource(seed=3)
    ).start()
    client = FlatFileClient(
        Nic(net),
        server.put_port,
        rng=RandomSource(seed=4),
        expect_signature=server.signature_image,
    )
    return net, disk, server, client, block_server


@pytest.fixture(params=["memory", "block"])
def world(request):
    return make_world(request.param)


class TestFileOperations:
    def test_create_read(self, world):
        _, _, _, client = world
        cap = client.create(b"initial contents")
        assert client.read(cap, 0, 16) == b"initial contents"

    def test_no_open_state(self, world):
        """'The server does not have any concept of an open file': any
        valid capability works at any time, interleaved freely."""
        _, _, _, client = world
        a = client.create(b"file a")
        b = client.create(b"file b")
        assert client.read(a, 0, 6) == b"file a"
        assert client.read(b, 0, 6) == b"file b"
        client.write(a, 5, b"A!")
        assert client.read(b, 0, 6) == b"file b"
        assert client.read(a, 0, 7) == b"file A!"

    def test_positioned_reads_and_writes(self, world):
        _, _, _, client = world
        cap = client.create()
        client.write(cap, 0, b"0123456789")
        assert client.read(cap, 3, 4) == b"3456"
        client.write(cap, 5, b"XY")
        assert client.read(cap, 0, 10) == b"01234XY789"

    def test_writes_grow_the_file(self, world):
        _, _, _, client = world
        cap = client.create()
        assert client.size(cap) == 0
        client.write(cap, 100, b"sparse tail")
        assert client.size(cap) == 111
        # The gap reads as zeros.
        assert client.read(cap, 0, 4) == bytes(4)

    def test_read_past_end_is_short(self, world):
        _, _, _, client = world
        cap = client.create(b"short")
        assert client.read(cap, 3, 100) == b"rt"
        assert client.read(cap, 99, 10) == b""

    def test_large_file_spans_blocks(self, world):
        _, _, _, client = world
        cap = client.create()
        payload = bytes(range(256)) * 4  # 1024 bytes: 16 blocks of 64
        client.write(cap, 0, payload)
        assert client.read(cap, 0, 1024) == payload
        assert client.read(cap, 500, 100) == payload[500:600]

    def test_read_all(self, world):
        _, _, _, client = world
        cap = client.create()
        payload = b"ABCD" * 300
        client.write(cap, 0, payload)
        assert client.read_all(cap) == payload


class TestRights:
    def test_read_only_capability(self, world):
        _, _, _, client = world
        cap = client.create(b"data")
        reader = client.restrict(cap, R_READ)
        assert client.read(reader, 0, 4) == b"data"
        with pytest.raises(PermissionDenied):
            client.write(reader, 0, b"nope")

    def test_write_only_capability(self, world):
        _, _, _, client = world
        cap = client.create()
        writer = client.restrict(cap, R_WRITE)
        client.write(writer, 0, b"in")
        with pytest.raises(PermissionDenied):
            client.read(writer, 0, 2)


class TestDestroy:
    def test_destroy(self, world):
        _, _, _, client = world
        cap = client.create(b"condemned")
        client.destroy(cap)
        with pytest.raises(NoSuchObject):
            client.read(cap, 0, 1)

    def test_block_backend_releases_blocks(self):
        _, disk, _, client = make_world("block")
        cap = client.create()
        client.write(cap, 0, b"x" * 640)  # 10 blocks
        used = disk.used_blocks
        assert used >= 10
        client.destroy(cap)
        assert disk.used_blocks == 0

    def test_a_refused_create_keeps_no_blocks(self):
        """The initial contents are written before the table is asked
        for a row: a full table, or a block server that runs out of
        disk half-way through the contents, gives the blocks back."""
        _, disk, server, client = make_world("block")
        client.create(b"kept")
        used = disk.used_blocks
        limit, server.table._max_objects = server.table._max_objects, 1
        with pytest.raises(OutOfSpace):
            client.create(b"x" * 3000)
        assert disk.used_blocks == used
        server.table._max_objects = limit
        with pytest.raises(OutOfSpace):
            client.create(b"x" * disk.block_size * disk.n_blocks)
        assert disk.used_blocks == used

    def test_blocks_a_dead_block_server_cannot_free_are_owed(self):
        """The block server stops between a refused create's writes and
        their release: the client still hears OutOfSpace, and the blocks
        come back at the first sweep after the block server returns."""
        _, disk, server, client, blocks = blocks_world("block")
        client.create(b"kept")
        used = disk.used_blocks
        server.table._max_objects = 1
        create = server.table.create

        def refused_while_blocks_stop(data):
            blocks.stop()
            return create(data)

        server.table.create = refused_while_blocks_stop
        with pytest.raises(OutOfSpace):
            client.create(b"x" * 3000)
        assert disk.used_blocks > used
        blocks.start()
        server.sweep()
        assert (disk.used_blocks, server.frees_owed) == (used, [])


class TestRevocation:
    def test_refresh_invalidates_shared_copies(self, world):
        _, _, _, client = world
        from repro.errors import InvalidCapability

        owner = client.create(b"shared")
        reader = client.restrict(owner, R_READ)
        fresh = client.refresh(owner)
        for dead in (owner, reader):
            with pytest.raises(InvalidCapability):
                client.read(dead, 0, 1)
        assert client.read(fresh, 0, 6) == b"shared"


class TestModularStack:
    def test_file_server_is_a_block_client(self):
        """§3.2's architecture claim: the file server uses the block
        server's public capability interface, nothing deeper."""
        _, disk, server, client = make_world("block")
        cap = client.create()
        client.write(cap, 0, b"y" * 200)
        # Data actually landed on the disk behind the *block* server.
        assert disk.used_blocks >= 4
        assert server.block_client is not None
