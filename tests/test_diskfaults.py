"""Tests for seeded disk fault injection (torn/lost writes, power failure)."""

import pytest

from repro.disk.diskfaults import DiskFaultPlan
from repro.disk.virtualdisk import VirtualDisk
from repro.errors import DiskFault, PowerFailure


class TestPlanValidation:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            DiskFaultPlan(torn=1.5)
        with pytest.raises(ValueError):
            DiskFaultPlan(lost=-0.1)

    def test_power_fail_after_bounds(self):
        with pytest.raises(ValueError):
            DiskFaultPlan(power_fail_after=-1)


class TestTornWrites:
    def test_torn_write_mixes_old_and_new(self):
        disk = VirtualDisk(4, block_size=64, faults=DiskFaultPlan(seed=7, torn_at={1}))
        b = disk.allocate()
        disk.write(b, b"A" * 64)          # write 0: clean
        disk.write(b, b"B" * 64)          # write 1: torn
        raw = disk.read(b)
        assert raw != b"B" * 64           # some suffix still holds the old data
        assert raw.startswith(b"B")       # but a non-empty prefix landed
        assert b"A" in raw
        assert disk.faults.stats()["torn_writes"] == 1

    def test_torn_write_over_virgin_block_mixes_with_zeros(self):
        disk = VirtualDisk(4, block_size=64, faults=DiskFaultPlan(seed=7, torn_at={0}))
        b = disk.allocate()
        disk.write(b, b"C" * 64)
        raw = disk.read(b)
        assert raw.startswith(b"C")
        assert raw.endswith(b"\0")

    def test_torn_probability_deterministic(self):
        def run():
            disk = VirtualDisk(
                8, block_size=32, faults=DiskFaultPlan(seed=3, torn=0.5)
            )
            blocks = [disk.allocate() for _ in range(8)]
            for i, b in enumerate(blocks):
                disk.write(b, bytes([i]) * 32)
            return [disk.read(b) for b in blocks], disk.faults.stats()

        one, two = run(), run()
        assert one == two
        assert one[1]["torn_writes"] > 0


class TestLostWrites:
    def test_lost_write_acked_but_absent(self):
        disk = VirtualDisk(4, block_size=32, faults=DiskFaultPlan(seed=1, lost_at={1}))
        b = disk.allocate()
        disk.write(b, b"old data")
        disk.write(b, b"new data")        # silently dropped
        assert disk.read(b).startswith(b"old data")
        assert disk.faults.stats()["lost_writes"] == 1

    def test_lost_first_write_leaves_block_virgin(self):
        disk = VirtualDisk(4, block_size=32, faults=DiskFaultPlan(seed=1, lost_at={0}))
        b = disk.allocate()
        disk.write(b, b"gone")
        assert not disk.is_written(b)
        assert disk.read(b) == bytes(32)


class TestPowerFailure:
    def test_power_fail_after_n_writes(self):
        disk = VirtualDisk(8, block_size=32,
                           faults=DiskFaultPlan(power_fail_after=2))
        b = disk.allocate()
        disk.write(b, b"one")
        disk.write(b, b"two")
        with pytest.raises(PowerFailure):
            disk.write(b, b"three")
        assert disk.read(b).startswith(b"two")

    def test_disk_stays_dead_until_revive(self):
        disk = VirtualDisk(8, faults=DiskFaultPlan(power_fail_after=0))
        b = disk.allocate()
        with pytest.raises(PowerFailure):
            disk.write(b, b"x")
        with pytest.raises(PowerFailure):
            disk.write(b, b"y")
        disk.faults.revive()
        disk.write(b, b"alive")
        assert disk.read(b).startswith(b"alive")

    def test_power_failure_is_a_disk_fault(self):
        assert issubclass(PowerFailure, DiskFault)

    def test_failed_write_not_counted_on_medium(self):
        disk = VirtualDisk(8, faults=DiskFaultPlan(power_fail_after=0))
        b = disk.allocate()
        with pytest.raises(PowerFailure):
            disk.write(b, b"x")
        assert not disk.is_written(b)


class TestBookkeeping:
    def test_stats_and_reset(self):
        plan = DiskFaultPlan(seed=2, lost_at={0})
        disk = VirtualDisk(4, faults=plan)
        b = disk.allocate()
        disk.write(b, b"a")
        disk.write(b, b"b")
        stats = plan.stats()
        assert stats["writes_seen"] == 2
        assert stats["lost_writes"] == 1
        assert not stats["powered_off"]
        plan.reset_stats()
        assert plan.stats()["torn_writes"] == 0
        assert plan.stats()["lost_writes"] == 0

    def test_ordinals_are_global_across_blocks(self):
        plan = DiskFaultPlan(seed=2, lost_at={1})
        disk = VirtualDisk(4, block_size=16, faults=plan)
        b0, b1 = disk.allocate(), disk.allocate()
        disk.write(b0, b"kept")
        disk.write(b1, b"lost")           # global write ordinal 1
        assert disk.read(b0).startswith(b"kept")
        assert not disk.is_written(b1)
