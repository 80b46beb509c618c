"""Tests for the virtual disk (including write-once media)."""

import threading

import pytest

from repro.disk.virtualdisk import VirtualDisk
from repro.errors import OutOfSpace, WriteOnceViolation


class TestBasics:
    def test_geometry(self):
        disk = VirtualDisk(n_blocks=10, block_size=128)
        assert disk.n_blocks == 10
        assert disk.block_size == 128
        assert disk.used_blocks == 0

    def test_allocate_unique(self):
        disk = VirtualDisk(n_blocks=5)
        blocks = {disk.allocate() for _ in range(5)}
        assert len(blocks) == 5
        assert disk.used_blocks == 5

    def test_exhaustion(self):
        disk = VirtualDisk(n_blocks=2)
        disk.allocate()
        disk.allocate()
        with pytest.raises(OutOfSpace):
            disk.allocate()

    def test_free_recycles(self):
        disk = VirtualDisk(n_blocks=1)
        b = disk.allocate()
        disk.free(b)
        assert disk.allocate() == b

    def test_validation(self):
        with pytest.raises(ValueError):
            VirtualDisk(n_blocks=0)
        with pytest.raises(ValueError):
            VirtualDisk(n_blocks=1, block_size=0)


class TestAllocationDiscipline:
    """Freeing is only legal for blocks the disk handed out."""

    def test_double_free_raises(self):
        disk = VirtualDisk(n_blocks=4)
        b = disk.allocate()
        disk.free(b)
        with pytest.raises(ValueError, match="not allocated"):
            disk.free(b)

    def test_free_of_never_allocated_block_raises(self):
        disk = VirtualDisk(n_blocks=4)
        with pytest.raises(ValueError, match="not allocated"):
            disk.free(2)

    def test_free_out_of_range_raises(self):
        disk = VirtualDisk(n_blocks=4)
        with pytest.raises(ValueError):
            disk.free(99)

    def test_double_free_does_not_corrupt_free_list(self):
        # The historical bug: free() appended unconditionally, so a
        # double free let two owners allocate the same block.
        disk = VirtualDisk(n_blocks=2)
        b = disk.allocate()
        disk.free(b)
        with pytest.raises(ValueError):
            disk.free(b)
        first, second = disk.allocate(), disk.allocate()
        assert first != second

    def test_reserve(self):
        disk = VirtualDisk(n_blocks=4)
        disk.reserve(0)
        assert 0 in disk.allocated_blocks()
        got = {disk.allocate() for _ in range(3)}
        assert 0 not in got
        with pytest.raises(ValueError):
            disk.reserve(0)  # already taken

    def test_allocated_blocks_snapshot(self):
        disk = VirtualDisk(n_blocks=4)
        a, b = disk.allocate(), disk.allocate()
        assert disk.allocated_blocks() == frozenset({a, b})


class TestThreadSafety:
    def test_concurrent_allocate_free_cycles(self):
        disk = VirtualDisk(n_blocks=256, block_size=32)
        errors = []

        def churn(worker):
            try:
                for i in range(200):
                    b = disk.allocate()
                    disk.write(b, b"w%dc%d" % (worker, i))
                    assert disk.read(b).startswith(b"w%d" % worker)
                    disk.free(b)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(w,)) for w in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert disk.used_blocks == 0
        assert len(disk._free) == 256

    def test_concurrent_allocation_is_unique(self):
        disk = VirtualDisk(n_blocks=512)
        grabbed = [[] for _ in range(8)]

        def grab(mine):
            for _ in range(64):
                mine.append(disk.allocate())

        threads = [
            threading.Thread(target=grab, args=(g,)) for g in grabbed
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        flat = [b for mine in grabbed for b in mine]
        assert len(flat) == len(set(flat)) == 512


class TestIO:
    def test_write_read(self):
        disk = VirtualDisk(n_blocks=4, block_size=16)
        b = disk.allocate()
        disk.write(b, b"hello")
        assert disk.read(b) == b"hello" + bytes(11)

    def test_unwritten_reads_zeros(self):
        disk = VirtualDisk(n_blocks=4, block_size=8)
        b = disk.allocate()
        assert disk.read(b) == bytes(8)

    def test_oversized_write(self):
        disk = VirtualDisk(n_blocks=4, block_size=8)
        b = disk.allocate()
        with pytest.raises(ValueError):
            disk.write(b, b"123456789")

    def test_block_bounds(self):
        disk = VirtualDisk(n_blocks=4)
        with pytest.raises(ValueError):
            disk.read(4)
        with pytest.raises(ValueError):
            disk.write(-1, b"")

    def test_counters(self):
        disk = VirtualDisk(n_blocks=4)
        b = disk.allocate()
        disk.write(b, b"x")
        disk.read(b)
        disk.read(b)
        assert disk.writes == 1
        assert disk.reads == 2

    def test_rewrite_allowed_on_normal_media(self):
        disk = VirtualDisk(n_blocks=4, block_size=8)
        b = disk.allocate()
        disk.write(b, b"first")
        disk.write(b, b"second")
        assert disk.read(b).startswith(b"second")


class TestWriteOnce:
    """§3.5: 'designed for use with video disks and other write-once
    media' — a written block is burnt forever."""

    def test_rewrite_refused(self):
        disk = VirtualDisk(n_blocks=4, write_once=True)
        b = disk.allocate()
        disk.write(b, b"burnt")
        with pytest.raises(WriteOnceViolation):
            disk.write(b, b"again")

    def test_free_of_written_block_refused(self):
        disk = VirtualDisk(n_blocks=4, write_once=True)
        b = disk.allocate()
        disk.write(b, b"burnt")
        with pytest.raises(WriteOnceViolation):
            disk.free(b)

    def test_unwritten_block_can_be_freed(self):
        disk = VirtualDisk(n_blocks=4, write_once=True)
        b = disk.allocate()
        disk.free(b)  # never written: reclaimable

    def test_reads_always_allowed(self):
        disk = VirtualDisk(n_blocks=4, write_once=True)
        b = disk.allocate()
        disk.write(b, b"data")
        for _ in range(3):
            assert disk.read(b).startswith(b"data")

    def test_is_written(self):
        disk = VirtualDisk(n_blocks=4, write_once=True)
        b = disk.allocate()
        assert not disk.is_written(b)
        disk.write(b, b"x")
        assert disk.is_written(b)
