"""Tests for the block server (§3.2)."""

import pytest

from repro.crypto.randomsrc import RandomSource
from repro.disk.virtualdisk import VirtualDisk
from repro.errors import BadRequest, OutOfSpace, PermissionDenied
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.servers.block import R_READ, R_WRITE, BlockClient, BlockServer


@pytest.fixture
def world():
    net = SimNetwork()
    disk = VirtualDisk(n_blocks=8, block_size=64)
    server = BlockServer(Nic(net), disk=disk, rng=RandomSource(seed=1)).start()
    client = BlockClient(
        Nic(net),
        server.put_port,
        rng=RandomSource(seed=2),
        expect_signature=server.signature_image,
    )
    return net, disk, server, client


class TestAllocate:
    def test_alloc_returns_capability_and_geometry(self, world):
        _, _, _, client = world
        cap, block_size = client.alloc()
        assert block_size == 64
        assert cap is not None

    def test_alloc_with_initial_data(self, world):
        _, _, _, client = world
        cap, _ = client.alloc(initial=b"superblock")
        assert client.read(cap).startswith(b"superblock")

    def test_initial_data_too_big(self, world):
        _, _, _, client = world
        with pytest.raises(BadRequest):
            client.alloc(initial=b"x" * 65)

    def test_disk_exhaustion_surfaces(self, world):
        _, _, _, client = world
        for _ in range(8):
            client.alloc()
        with pytest.raises(OutOfSpace):
            client.alloc()


class TestReadWrite:
    def test_write_read_roundtrip(self, world):
        _, _, _, client = world
        cap, _ = client.alloc()
        client.write(cap, b"some data")
        assert client.read(cap).startswith(b"some data")

    def test_rights_enforced(self, world):
        _, _, server, client = world
        cap, _ = client.alloc()
        read_only = client.restrict(cap, R_READ)
        client.read(read_only)
        with pytest.raises(PermissionDenied):
            client.write(read_only, b"denied")
        write_only = client.restrict(cap, R_WRITE)
        client.write(write_only, b"ok")
        with pytest.raises(PermissionDenied):
            client.read(write_only)


class TestFree:
    def test_free_returns_block_to_pool(self, world):
        _, disk, _, client = world
        cap, _ = client.alloc()
        used = disk.used_blocks
        client.free(cap)
        assert disk.used_blocks == used - 1

    def test_freed_capability_dead(self, world):
        from repro.errors import NoSuchObject

        _, _, _, client = world
        cap, _ = client.alloc()
        client.free(cap)
        with pytest.raises(NoSuchObject):
            client.read(cap)
