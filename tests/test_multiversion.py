"""Tests for the multiversion file server (§3.5)."""

import pytest

from repro.crypto.randomsrc import RandomSource
from repro.disk.virtualdisk import VirtualDisk
from repro.errors import (
    BadRequest,
    PermissionDenied,
    VersionConflict,
    VersionImmutable,
)
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.servers.multiversion import (
    R_READ,
    MultiversionClient,
    MultiversionFileServer,
)


def make_world(write_once=False, block_size=64, n_blocks=512):
    net = SimNetwork()
    disk = VirtualDisk(n_blocks=n_blocks, block_size=block_size,
                       write_once=write_once)
    server = MultiversionFileServer(
        Nic(net), disk=disk, rng=RandomSource(seed=1)
    ).start()
    client = MultiversionClient(
        Nic(net),
        server.put_port,
        rng=RandomSource(seed=2),
        expect_signature=server.signature_image,
    )
    return net, disk, server, client


@pytest.fixture(params=[False, True], ids=["rewritable", "write-once"])
def world(request):
    return make_world(write_once=request.param)


class TestVersioning:
    def test_new_file_has_empty_version_zero(self, world):
        _, _, _, client = world
        f = client.create_file()
        assert client.n_versions(f) == 1
        assert client.read(f, 0, 100) == b""

    def test_write_commit_read(self, world):
        _, _, _, client = world
        f = client.create_file()
        v, base = client.new_version(f)
        assert base == 0
        client.write(v, 0, b"first version data")
        seq = client.commit(v)
        assert seq == 1
        assert client.read(f, 0, 100) == b"first version data"

    def test_uncommitted_writes_invisible_in_file(self, world):
        _, _, _, client = world
        f = client.create_file()
        v, _ = client.new_version(f)
        client.write(v, 0, b"draft")
        assert client.read(f, 0, 100) == b""  # latest committed: empty
        assert client.read(v, 0, 100) == b"draft"  # via version cap

    def test_version_history_readable(self, world):
        """'A file is thus a sequence of versions.'"""
        _, _, _, client = world
        f = client.create_file()
        for text in (b"one", b"two", b"three"):
            v, _ = client.new_version(f)
            client.write(v, 0, text)
            client.commit(v)
        assert client.n_versions(f) == 4
        history = [
            client.read_version(f, seq, 0, 10)
            for seq in range(client.n_versions(f))
        ]
        assert history == [b"", b"one", b"two", b"three"]

    def test_read_bad_seq(self, world):
        _, _, _, client = world
        f = client.create_file()
        with pytest.raises(BadRequest):
            client.read_version(f, 7, 0, 10)


class TestAtomicCommit:
    def test_commit_is_all_or_nothing_under_conflict(self, world):
        """Optimistic concurrency: of two versions derived from the same
        base, exactly one commit wins."""
        _, _, _, client = world
        f = client.create_file()
        v_a, _ = client.new_version(f)
        v_b, _ = client.new_version(f)
        client.write(v_a, 0, b"writer A")
        client.write(v_b, 0, b"writer B")
        client.commit(v_a)
        with pytest.raises(VersionConflict):
            client.commit(v_b)
        assert client.read(f, 0, 100) == b"writer A"
        assert client.n_versions(f) == 2

    def test_loser_rederives_and_retries(self, world):
        _, _, _, client = world
        f = client.create_file()
        v_a, _ = client.new_version(f)
        v_b, _ = client.new_version(f)
        client.write(v_a, 0, b"A")
        client.commit(v_a)
        client.write(v_b, 0, b"B")
        with pytest.raises(VersionConflict):
            client.commit(v_b)
        retry, base = client.new_version(f)
        assert base == 1
        client.write(retry, 0, b"B retry")
        client.commit(retry)
        assert client.read(f, 0, 100) == b"B retry"

    def test_double_commit_refused(self, world):
        _, _, _, client = world
        f = client.create_file()
        v, _ = client.new_version(f)
        client.commit(v)
        with pytest.raises(VersionImmutable):
            client.commit(v)


class TestImmutability:
    def test_committed_version_rejects_writes(self, world):
        """'Once a version of a file has been committed, it cannot be
        modified.'"""
        _, _, _, client = world
        f = client.create_file()
        v, _ = client.new_version(f)
        client.write(v, 0, b"final")
        client.commit(v)
        with pytest.raises(VersionImmutable):
            client.write(v, 0, b"sneaky edit")

    def test_committed_version_still_readable(self, world):
        _, _, _, client = world
        f = client.create_file()
        v, _ = client.new_version(f)
        client.write(v, 0, b"snapshot")
        client.commit(v)
        assert client.read(v, 0, 100) == b"snapshot"

    def test_aborted_version_rejects_everything(self, world):
        _, _, _, client = world
        f = client.create_file()
        v, _ = client.new_version(f)
        client.write(v, 0, b"scrap")
        client.abort(v)
        with pytest.raises(VersionImmutable):
            client.write(v, 0, b"more")
        with pytest.raises(VersionImmutable):
            client.commit(v)


class TestCopyOnWrite:
    def test_branching_copies_no_pages(self):
        """'The new version acts like it is a page-by-page copy of the
        original, although in fact, pages are only copied when they are
        changed.'"""
        _, disk, server, client = make_world(block_size=64)
        f = client.create_file()
        v, _ = client.new_version(f)
        client.write(v, 0, b"x" * 640)  # 10 pages
        client.commit(v)
        writes_before = disk.writes
        v2, _ = client.new_version(f)  # branch: no I/O at all
        assert disk.writes == writes_before
        assert server.pages_shared >= 10

    def test_writing_one_page_copies_one_page(self):
        _, disk, server, client = make_world(block_size=64)
        f = client.create_file()
        v, _ = client.new_version(f)
        client.write(v, 0, b"x" * 640)
        client.commit(v)
        copied_before = server.pages_copied
        v2, _ = client.new_version(f)
        client.write(v2, 0, b"Y")  # touches page 0 only
        assert server.pages_copied == copied_before + 1

    def test_old_version_unchanged_after_cow(self):
        _, _, _, client = make_world(block_size=64)
        f = client.create_file()
        v, _ = client.new_version(f)
        client.write(v, 0, b"original page content")
        client.commit(v)
        v2, _ = client.new_version(f)
        client.write(v2, 0, b"MUTATED")
        client.commit(v2)
        assert client.read_version(f, 1, 0, 21) == b"original page content"
        assert client.read_version(f, 2, 0, 7) == b"MUTATED"

    def test_abort_releases_private_pages(self):
        _, disk, _, client = make_world(block_size=64)
        f = client.create_file()
        v, _ = client.new_version(f)
        client.write(v, 0, b"z" * 640)
        used = disk.used_blocks
        assert used >= 10
        client.abort(v)
        assert disk.used_blocks == 0

    def test_destroy_releases_every_page(self):
        """``on_destroy``: a destroyed file gives back its committed
        versions' pages, a destroyed open version its private ones."""
        _, disk, _, client = make_world(block_size=64)
        f = client.create_file()
        for fill in (b"a" * 200, b"b" * 64):
            v, _ = client.new_version(f)
            client.write(v, 0, fill)
            client.commit(v)
        open_version, _ = client.new_version(f)
        client.write(open_version, 64, b"c" * 128)
        client.destroy(f)
        assert 0 < disk.used_blocks
        client.destroy(open_version)
        assert disk.used_blocks == 0


class TestWriteOnceMedia:
    def test_full_lifecycle_on_write_once_disk(self):
        """§3.5: the design must run unchanged on media where no block is
        ever rewritten."""
        _, disk, _, client = make_world(write_once=True)
        f = client.create_file()
        for text in (b"gen one", b"gen two", b"gen three"):
            v, _ = client.new_version(f)
            client.write(v, 0, text)
            client.commit(v)
        assert client.read(f, 0, 100) == b"gen three"
        assert client.read_version(f, 1, 0, 100) == b"gen one"
        # Every page write burnt a fresh block; none was ever rewritten.
        assert disk.writes == disk.used_blocks

    def test_partial_page_update_on_write_once(self):
        _, disk, _, client = make_world(write_once=True, block_size=32)
        f = client.create_file()
        v, _ = client.new_version(f)
        client.write(v, 0, b"A" * 32)
        client.write(v, 10, b"bbb")  # read-modify-write: new block
        client.commit(v)
        expected = b"A" * 10 + b"bbb" + b"A" * 19
        assert client.read(f, 0, 32) == expected


class TestRights:
    def test_read_only_file_capability(self, world):
        _, _, _, client = world
        f = client.create_file()
        reader = client.restrict(f, R_READ)
        client.read(reader, 0, 10)
        with pytest.raises(PermissionDenied):
            client.new_version(reader)

    def test_version_write_needs_write_right(self, world):
        _, _, _, client = world
        f = client.create_file()
        v, _ = client.new_version(f)
        reader = client.restrict(v, R_READ)
        with pytest.raises(PermissionDenied):
            client.write(reader, 0, b"x")
