"""Tests for the write-ahead log / snapshot store behind object tables.

The durability contract (ISSUE PR 8): every create/refresh/destroy is
logged under the table lock it already holds; snapshots truncate the
log; a reboot on the same disk rebuilds the table, and a suspect log
tail gets every row fresh secrets so capabilities minted before the
crash fail the §2.2 check cleanly.  (One log since PR 21; test ids that
say "stripe" are kept from the 16-chain store.)
"""

import zlib

import pytest

from repro.core.ports import Port
from repro.core.registry import ObjectTable
from repro.core.schemes import scheme_by_name
from repro.crypto.randomsrc import RandomSource
from repro.disk.diskfaults import DiskFaultPlan
from repro.disk.virtualdisk import VirtualDisk
from repro.disk.wal import ChainLog, DefaultCodec, DurableStore
from repro.errors import (
    DiskFault,
    InvalidCapability,
    NoSuchObject,
    PowerFailure,
)

PORT = Port(0x0D15C0FFEE00)
SCHEME = scheme_by_name("xor-oneway")


def make_table(store, seed=44):
    return ObjectTable(SCHEME, PORT, rng=RandomSource(seed=seed), wal=store)


def reattach(disk):
    """Simulate a reboot: new store over the same disk, new table."""
    store = DurableStore(disk, codec=DefaultCodec())
    table = make_table(store, seed=99)
    report = store.recover(table, rng=RandomSource(seed=1234))
    return store, table, report


def bare_disk(n_blocks, block_size=128):
    """A disk with the two superblock slots reserved, as DurableStore
    leaves it — chain scans refuse block numbers inside the slots."""
    disk = VirtualDisk(n_blocks, block_size=block_size)
    disk.reserve(0)
    disk.reserve(1)
    return disk


class TestStripeLog:
    """(Class id kept: the class under test is ChainLog now.)"""

    def test_append_and_scan_round_trip(self):
        from repro.disk.wal import _scan_chain

        disk = bare_disk(64)
        log = ChainLog(disk)
        payloads = [b"alpha", b"beta" * 40, b"g" * 500]
        for p in payloads:
            log.append(p)
        scan = _scan_chain(disk, log.head)
        assert scan.records == payloads
        assert not scan.suspect

    def test_scan_resumes_mid_block(self):
        from repro.disk.wal import _scan_chain

        disk = bare_disk(64)
        log = ChainLog(disk)
        log.append(b"old")
        block, offset = log.tail_position()
        log.append(b"new one")
        log.append(b"new two")
        scan = _scan_chain(disk, block, start_offset=offset)
        assert scan.records == [b"new one", b"new two"]

    def test_empty_payload_rejected(self):
        disk = bare_disk(8)
        log = ChainLog(disk)
        with pytest.raises(ValueError):
            log.append(b"")


class TestFormatAndAttach:
    def test_fresh_disk_is_formatted(self):
        store = DurableStore(VirtualDisk(256))
        assert not store.needs_recovery
        # Two superblock slots and the log's head block.
        assert store.stats()["used_blocks"] == 3

    def test_attach_sets_needs_recovery(self):
        disk = VirtualDisk(1024)
        store = DurableStore(disk, codec=DefaultCodec())
        table = make_table(store)
        table.create(b"survivor")
        attached = DurableStore(disk, codec=DefaultCodec())
        assert attached.needs_recovery

    def test_recover_validates_shard_count(self):
        """(Id kept.)  The count byte is still written — as 1 — and a
        superblock that counts anything else is refused at attach."""
        from repro.disk.wal import _SB

        disk = VirtualDisk(64)
        store = DurableStore(disk)
        fields = list(_SB.unpack_from(disk.read(store.epoch % 2)))
        assert fields[2] == 1
        for count in (0, 2, 16):
            fields[2], fields[4] = count, 0
            fields[4] = zlib.crc32(_SB.pack(*fields))  # a *valid* CRC
            for slot in (0, 1):
                disk.write(slot, _SB.pack(*fields))
            with pytest.raises(DiskFault):
                DurableStore(disk)

    def test_too_small_disk_rejected(self):
        # Two superblock slots, the log's head, one block of snapshot.
        with pytest.raises(ValueError):
            DurableStore(VirtualDisk(3))
        DurableStore(VirtualDisk(4))


class TestRecovery:
    def test_round_trip_restores_entries_and_rejects_stale(self):
        disk = VirtualDisk(4096)
        store = DurableStore(disk, codec=DefaultCodec())
        table = make_table(store)

        caps = [table.create("obj-%d" % i) for i in range(49)]
        refreshed = table.refresh(caps[7])
        stale = caps[7]
        table.destroy(caps[13])
        doomed = caps[13]

        store2, table2, report = reattach(disk)
        assert report.entries_restored == 48
        assert not report.suspect

        for i, cap in enumerate(caps):
            if i in (7, 13):
                continue
            entry, _ = table2.lookup(cap)
            assert entry.data == "obj-%d" % i
        entry, _ = table2.lookup(refreshed)
        assert entry.data == "obj-7"
        with pytest.raises(InvalidCapability):
            table2.lookup(stale)          # refreshed before the crash
        with pytest.raises((NoSuchObject, InvalidCapability)):
            table2.lookup(doomed)         # destroyed before the crash

    def test_fresh_numbers_do_not_collide_after_recovery(self):
        disk = VirtualDisk(4096)
        store = DurableStore(disk, codec=DefaultCodec())
        table = make_table(store)
        old = [table.create(i) for i in range(40)]

        _, table2, _ = reattach(disk)
        new = [table2.create(100 + i) for i in range(40)]
        numbers = {c.object for c in old} | {c.object for c in new}
        assert len(numbers) == 80

    @pytest.mark.parametrize(
        "checkpoint", [False, True], ids=["from-the-log", "checkpointed"]
    )
    def test_a_reboot_never_reissues_a_dead_objects_number(self, checkpoint):
        """Regression: recovery used to restart the fresh counter past
        the highest *live* number, so a number whose object died at
        generation 3 came back at generation 0 — and a stale revocation
        for the dead object then passed the generation guard on the new
        one, locking its owner out."""
        disk = VirtualDisk(1024)
        store = DurableStore(disk, codec=DefaultCodec())
        table = make_table(store)
        cap = [table.create(i) for i in range(3)][2]
        for _ in range(3):
            cap = table.refresh(cap)
        stale_secret = table._entry(2).secret
        table.destroy(cap)               # number 2 dies at generation 3
        if checkpoint:
            store.snapshot(table)

        _, table2, report = reattach(disk)
        assert report.high_water == table2.high_water == 3
        reborn = [table2.create("new-%d" % i) for i in range(20)]
        # Above every number the dead incarnation ever used: the free
        # list is not durable, so 2 is leaked rather than reused.
        assert sorted(c.object for c in reborn) == list(range(3, 23))
        assert not table2.apply_refresh(2, stale_secret, 3)
        for new in reborn:
            table2.lookup(new)

    def test_row_images_in_the_log_raise_the_high_water_mark(self):
        disk = VirtualDisk(1024)
        store = DurableStore(disk, codec=DefaultCodec())
        table = make_table(store)
        table.create("kept")
        store.snapshot(table)            # the superblock says 1
        late = [table.create("late-%d" % i) for i in range(3)]
        for cap in late:
            table.destroy(cap)

        _, table2, report = reattach(disk)
        assert report.entries_restored == 1
        assert report.high_water == 4
        assert table2.create("next").object == 4

    def test_snapshot_truncates_log_and_survives(self):
        disk = VirtualDisk(4096)
        store = DurableStore(disk, codec=DefaultCodec())
        table = make_table(store)
        caps = [table.create("pre-%d" % i) for i in range(32)]
        before = store.stats()["used_blocks"]
        store.snapshot(table)
        post = [table.create("post-%d" % i) for i in range(8)]
        assert store.stats()["snapshots_taken"] == 1
        # Snapshot + truncation must not leak the old log blocks.
        assert store.stats()["used_blocks"] <= before + 3

        _, table2, report = reattach(disk)
        assert report.entries_restored == 40
        for cap in caps + post:
            table2.lookup(cap)

    def test_snapshot_of_empty_table(self):
        disk = VirtualDisk(1024)
        store = DurableStore(disk, codec=DefaultCodec())
        table = make_table(store)
        store.snapshot(table)
        _, table2, report = reattach(disk)
        assert report.entries_restored == 0
        assert len(table2) == 0

    def test_repeated_snapshots_bounded_disk(self):
        disk = VirtualDisk(4096)
        store = DurableStore(disk, codec=DefaultCodec())
        table = make_table(store)
        cap = table.create("churn")
        sizes = []
        for round_no in range(6):
            for _ in range(20):
                cap = table.refresh(cap)
            store.snapshot(table)
            sizes.append(store.stats()["used_blocks"])
        # Disk footprint must not grow round over round once steady.
        assert max(sizes[2:]) <= sizes[1] + 1

    def test_commits_recovered_from_clean_log(self):
        disk = VirtualDisk(2048)
        store = DurableStore(disk, codec=DefaultCodec())
        table = make_table(store)
        cap = table.create("acct")
        table.log_commit(0xBEEF, 0xF00D, b"reply-bytes")

        _, _, report = reattach(disk)
        assert report.commits == {(0xBEEF, 0xF00D): b"reply-bytes"}

    def test_commits_are_not_snapshotted(self):
        # Bounded dedup: a commit older than the last checkpoint is
        # forgotten, mirroring ReplyCache LRU eviction semantics.
        disk = VirtualDisk(2048)
        store = DurableStore(disk, codec=DefaultCodec())
        table = make_table(store)
        cap = table.create("acct")
        table.log_commit(1, 2, b"old")
        store.snapshot(table)
        table.log_commit(3, 4, b"young")

        _, _, report = reattach(disk)
        assert report.commits == {(3, 4): b"young"}

    def test_start_requires_recover_first(self):
        disk = VirtualDisk(1024)
        store = DurableStore(disk, codec=DefaultCodec())
        make_table(store).create(b"x")
        attached = DurableStore(disk, codec=DefaultCodec())
        table = make_table(attached)
        with pytest.raises(RuntimeError):
            attached.snapshot(table)      # must recover before snapshotting
        attached.recover(table)
        attached.snapshot(table)          # now fine


class TestSuspectTails:
    def _build(self, disk):
        store = DurableStore(disk, codec=DefaultCodec())
        table = make_table(store)
        caps = [table.create("obj-%d" % i) for i in range(32)]
        return store, table, caps

    def test_torn_tail_regenerates_stripe_secrets(self):
        disk = VirtualDisk(4096)
        store, table, caps = self._build(disk)
        # A >1-block record spills: the group's first write (ordinal 0
        # after arming) is the new tail, which a tear beyond the
        # record's end leaves intact and any later append rewrites;
        # ordinal 1 is a *full* block — the old tail, written last to
        # link the rest in, or the block before it — so the tear lands
        # mid-record and nothing ever heals it.
        disk.faults = DiskFaultPlan(seed=5, torn_at={1})
        victim = table.create(b"V" * 700)

        _, table2, report = reattach(disk)
        assert report.suspect
        assert report.secrets_regenerated == len(caps)
        with pytest.raises((NoSuchObject, InvalidCapability)):
            table2.lookup(victim)
        for cap in caps:
            with pytest.raises(InvalidCapability):
                table2.lookup(cap)        # the whole table is re-keyed

    def test_torn_tail_repaired_on_reattach(self):
        disk = VirtualDisk(4096)
        store, table, _ = self._build(disk)
        disk.faults = DiskFaultPlan(seed=5, torn_at={1})
        table.create(b"V" * 700)
        disk.faults = None

        reattach(disk)                    # truncates the torn tail
        _, _, second = reattach(disk)     # must now scan clean
        assert not second.suspect

    def test_lost_tail_is_consistent_but_older(self):
        disk = VirtualDisk(4096)
        store, table, caps = self._build(disk)
        disk.faults = DiskFaultPlan(seed=5, lost_at={0})
        ghost = table.create("acked but never on the medium")

        _, table2, report = reattach(disk)
        # A lost whole-block write is undetectable by design: the state
        # is simply older.  No stripe goes suspect, old caps still work.
        assert not report.suspect
        for cap in caps:
            table2.lookup(cap)
        with pytest.raises((NoSuchObject, InvalidCapability)):
            table2.lookup(ghost)

    def test_suspect_stripe_drops_its_commits(self):
        disk = VirtualDisk(4096)
        store, table, _ = self._build(disk)
        disk.faults = DiskFaultPlan(seed=5, torn_at={1})
        victim = table.create(b"V" * 700)
        table.log_commit(7, 8, b"reply")

        _, _, report = reattach(disk)
        assert report.suspect
        assert (7, 8) not in report.commits


    def _tear_a_tail(self):
        """A table holding several objects, its log torn by the next
        create; the disk is healthy again afterwards."""
        disk = VirtualDisk(4096)
        store, table, caps = self._build(disk)
        disk.faults = DiskFaultPlan(seed=5, torn_at={1})
        table.create(b"V" * 700)
        disk.faults = None
        return disk, caps

    def test_rekeying_survives_a_second_reboot(self):
        disk, held = self._tear_a_tail()
        # An attach that never gets to recover() (a crash in between)
        # must not leave a log that scans clean over the old secrets.
        DurableStore(disk, codec=DefaultCodec())
        _, table1, first = reattach(disk)
        assert first.suspect
        reissued = table1.mint_for(held[0].object)

        _, table2, second = reattach(disk)
        # Nothing is suspect any more, nothing is re-keyed again — and
        # the first reboot's revocation is what the medium remembers.
        assert not second.suspect
        assert second.secrets_regenerated == 0
        for cap in held:
            with pytest.raises(InvalidCapability):
                table2.lookup(cap)
        table2.lookup(reissued)

    def test_dropped_commits_stay_dropped_after_a_second_reboot(self):
        disk = VirtualDisk(4096)
        store, table, caps = self._build(disk)
        table.log_commit(7, 8, b"reply")
        disk.faults = DiskFaultPlan(seed=5, torn_at={1})
        table.persist(caps[0].object, b"V" * 700)
        disk.faults = None

        _, _, first = reattach(disk)
        assert first.suspect
        assert (7, 8) not in first.commits
        _, _, second = reattach(disk)
        assert not second.suspect
        assert (7, 8) not in second.commits

    @pytest.mark.parametrize("writes", range(8))
    def test_power_failure_inside_the_rekeying_restores_no_old_secret(
        self, writes
    ):
        """The first reboot dies after ``writes`` block writes of its
        re-keying checkpoint; whatever reached the medium, the second
        reboot must still refuse every pre-crash capability."""
        disk, held = self._tear_a_tail()
        disk.faults = DiskFaultPlan(power_fail_after=writes)
        try:
            reattach(disk)
        except PowerFailure:
            pass
        disk.faults.revive()
        _, table2, report = reattach(disk)
        for cap in held:
            with pytest.raises(InvalidCapability):
                table2.lookup(cap)
        _, _, third = reattach(disk)
        assert not third.suspect

    def test_damaged_snapshot_chain_is_freed_by_the_rekeying_checkpoint(self):
        disk = VirtualDisk(4096)
        store = DurableStore(disk, codec=DefaultCodec())
        table = make_table(store)
        caps = [table.create(b"x" * 300) for _ in range(8)]
        store.snapshot(table)
        used = disk.used_blocks
        # Flip a byte in the second block of the snapshot chain.
        second = int.from_bytes(disk.read(store._snapshot)[:4], "big")
        raw = bytearray(disk.read(second))
        raw[40] ^= 0xFF
        disk.write(second, bytes(raw))

        store2, table2, report = reattach(disk)
        assert report.suspect
        with pytest.raises((InvalidCapability, NoSuchObject)):
            table2.lookup(caps[0])
        store2.snapshot(table2)           # frees nothing twice
        assert disk.used_blocks <= used


class TestPowerFailure:
    def test_power_fail_mid_snapshot_recovers_old_state(self):
        disk = VirtualDisk(4096)
        store = DurableStore(disk, codec=DefaultCodec())
        table = make_table(store)
        caps = [table.create("obj-%d" % i) for i in range(32)]

        disk.faults = DiskFaultPlan(power_fail_after=10)
        with pytest.raises(PowerFailure):
            store.snapshot(table)
        disk.faults.revive()

        _, table2, report = reattach(disk)
        assert report.entries_restored == 32
        for cap in caps:
            table2.lookup(cap)
        # Blocks of the half-written snapshot chain are reclaimed.
        assert report.blocks_reclaimed >= 1

    def test_corrupt_superblock_slot_falls_back_to_sibling(self):
        disk = VirtualDisk(4096)
        store = DurableStore(disk, codec=DefaultCodec())
        table = make_table(store)
        caps = [table.create("obj-%d" % i) for i in range(8)]
        store.snapshot(table)             # epoch chain committed cleanly

        # Smash the *newest* superblock slot — the one the last commit
        # wrote — as a torn/garbage superblock write would leave it.
        newest = store.epoch % 2
        disk.write(newest, b"\xde\xad" * (disk.block_size // 2))

        store2, table2, report = reattach(disk)
        # Attach fell back to the intact sibling slot: one epoch older,
        # but a complete, consistent view.  Every capability minted
        # before the crash still validates.
        for cap in caps:
            table2.lookup(cap)
        assert len(table2) == 8


class TestDefaultCodec:
    @pytest.mark.parametrize(
        "value", [None, b"bytes", "text é", 12345, -9, True, False]
    )
    def test_round_trip(self, value):
        codec = DefaultCodec()
        assert codec.decode(codec.encode(value)) == value

    def test_rejects_rich_types(self):
        with pytest.raises(TypeError):
            DefaultCodec().encode({"dict": 1})
