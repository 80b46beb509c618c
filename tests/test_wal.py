"""Tests for the write-ahead log / snapshot store behind object tables.

The durability contract (ISSUE PR 8): every create/refresh/destroy is
logged under the table lock it already holds; snapshots truncate the
log; a reboot on the same disk rebuilds the table, and a suspect log
tail gets every row fresh secrets so capabilities minted before the
crash fail the §2.2 check cleanly.  (One log since PR 21; test ids that
say "stripe" are kept from the 16-chain store.)
"""

import random
import threading
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ports import Port
from repro.core.record import REFRESH, Record
from repro.core.registry import ObjectTable
from repro.core.schemes import scheme_by_name
from repro.crypto.randomsrc import RandomSource
from repro.disk.diskfaults import DiskFaultPlan
from repro.disk.virtualdisk import VirtualDisk
from repro.disk.wal import (
    _CHAIN_HEADER,
    _RECORD_HEAD,
    _RECORD_MAGIC,
    NO_BLOCK,
    ChainLog,
    DefaultCodec,
    DurableStore,
    _pack_chain_header,
    _scan_chain,
)
from repro.errors import (
    DiskFault,
    InvalidCapability,
    NoSuchObject,
    OutOfSpace,
    PowerFailure,
)
from repro.ipc.client import ServiceClient
from repro.ipc.server import ObjectServer
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.servers.block import BlockClient, BlockServer
from test_wal_txn import history, replay

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


class NaiveChainLog(ChainLog):
    """The reference framer: every record concatenated whole, then
    copied into the tail block a slice at a time, spilling as it goes;
    every flush packs its header through the shared helper."""

    def append(self, payload, flush=True):
        if not payload:
            raise ValueError("cannot append an empty record")
        record = (
            _RECORD_HEAD.pack(_RECORD_MAGIC, len(payload), zlib.crc32(payload))
            + payload
        )
        with self.lock:
            while True:
                space = self.capacity - self.tail_used
                start = _CHAIN_HEADER.size + self.tail_used
                if len(record) <= space:
                    self._tail_buf[start:start + len(record)] = record
                    self.tail_used += len(record)
                    break
                self._tail_buf[start:start + space] = record[:space]
                record = record[space:]
                self._roll()
            self.records_appended += 1
            self._unflushed = True
            if flush:
                self._flush_tail()

    def _roll(self):
        new = self.disk.allocate()
        _pack_chain_header(self._tail_buf, new, self.capacity)
        self._spilled.append((self.tail, bytes(self._tail_buf)))
        self.tail, self.tail_used = new, 0
        self._tail_buf = bytearray(self.disk.block_size)

    def _flush_tail(self):
        _pack_chain_header(self._tail_buf, NO_BLOCK, self.tail_used)
        self.disk.write(self.tail, bytes(self._tail_buf))
        for block_no, image in reversed(self._spilled):
            self.disk.write(block_no, image)
        del self._spilled[:]
        self._unflushed = False


#: How a generated record's size relates to the room left in the tail
#: block when it is appended: it fills that room exactly, straddles into
#: one more block, spans several, or is any size at all.
SHAPES = ("exact", "straddle", "span", "any")


def record_length(shape, n, log):
    room = log.capacity - log.tail_used - _RECORD_HEAD.size
    if shape == "exact":
        return max(1, room)
    if shape == "straddle":
        return max(1, room + 1 + n % log.capacity)
    if shape == "span":
        return max(1, room + log.capacity + 1 + n)
    return 1 + n


def log_state(log):
    """Everything a refused append must leave as it found it: the log's
    buffers and counters, and the disk's allocation and contents."""
    disk = log.disk
    return (log.tail, log.tail_used, bytes(log._tail_buf), list(log._spilled),
            log._unflushed, log.records_appended, list(disk._free),
            set(disk._allocated), dict(disk._blocks), disk.writes)


class TestFramingAgainstTheReference:
    """The in-place framer writes the medium the naive one writes."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(SHAPES), st.integers(0, 150), st.booleans()),
        min_size=1, max_size=25,
    ), st.integers(4, 24) | st.just(512))
    def test_medium_matches_block_for_block(self, appends, n_blocks):
        """On a small disk the ``OutOfSpace`` arm runs too: a spill the
        disk cannot hold is refused whole, the log exactly as it was, and
        the naive framer (which never sees that record) stays level."""
        fast_disk = bare_disk(n_blocks, 64)
        naive_disk = bare_disk(n_blocks, 64)
        fast, naive = ChainLog(fast_disk), NaiveChainLog(naive_disk)
        payloads = []
        for index, (shape, n, flush) in enumerate(appends):
            length = record_length(shape, n, fast)
            payload = random.Random(index).randbytes(length)
            before = log_state(fast)
            try:
                fast.append(payload, flush=flush)
            except OutOfSpace:
                assert log_state(fast) == before
                continue
            payloads.append(payload)
            naive.append(payload, flush=flush)
            assert fast_disk._blocks == naive_disk._blocks
            assert fast_disk._free == naive_disk._free
            assert (fast.tail, fast.tail_used, fast._unflushed) == (
                naive.tail, naive.tail_used, naive._unflushed)
            assert fast._tail_buf == naive._tail_buf
        fast.flush()
        naive.flush()
        assert fast_disk._blocks == naive_disk._blocks
        assert fast_disk.writes == naive_disk.writes
        scan = _scan_chain(fast_disk, fast.head)
        assert scan.records == payloads and not scan.suspect

    def test_a_spill_the_disk_cannot_hold_is_refused_whole(self):
        """Regression: the spill allocated one block per roll, so a disk
        that filled after the first roll raised ``OutOfSpace`` with the
        head of the record already set aside in ``_spilled``; the next
        flush wrote it, and the next attach scanned the log as suspect
        and re-keyed the table."""
        disk = VirtualDisk(4, block_size=64)  # superblocks, log head, 1 free
        store = DurableStore(disk, codec=DefaultCodec())
        table = make_table(store)
        first = table.create(b"a")
        log = store._log
        assert disk.used_blocks == disk.n_blocks - 1 and log.tail_used > 0
        before = log_state(log)
        with pytest.raises(OutOfSpace):
            table.create(b"z" * 100)  # needs two more blocks
        assert log_state(log) == before
        second = table.create(b"b")  # one roll: the free block suffices
        assert disk.used_blocks == disk.n_blocks
        store.flush()
        scan = _scan_chain(disk, log.head)
        assert len(scan.records) == 2 and not scan.suspect
        _, rebooted, report = reattach(disk)
        assert not report.suspect and report.secrets_regenerated == 0
        assert report.entries_restored == 2
        assert rebooted.lookup(first)[0].data == b"a"
        assert rebooted.lookup(second)[0].data == b"b"

    # Regressions (the row changed before the log was asked), as histories.
    def test_a_create_the_log_refuses_leaves_no_object_behind(self):
        machine = replay(("fill", 0), *[("create",)] * 6, ("drain",),
                         ("create",))
        # Numbers stay dense: the refused create's number was reissued.
        numbers = sorted(machine.model.objects)
        assert machine.refused and numbers == list(range(len(numbers)))

    test_a_refresh_the_log_refuses_revokes_nothing = history(
        ("fill", 0), *[("refresh", -1)] * 6, ("reboot",), refused=True)
    test_a_destroy_the_log_refuses_destroys_nothing = history(
        *[("create",)] * 6, ("fill", 0), *[("destroy", n) for n in range(8)],
        ("reboot",), ("create",), refused=True)

    def _full_log(self, *sizes, **options):
        """A table whose log takes objects of ``sizes`` and then nothing
        more: ``(disk, store, table, capabilities)``."""
        disk = VirtualDisk(4, block_size=64)  # superblocks, log head, 1 free
        store = DurableStore(disk, codec=DefaultCodec())
        table = ObjectTable(SCHEME, PORT, rng=RandomSource(seed=44),
                            wal=store, **options)
        caps = [table.create(b"x" * size) for size in sizes]
        with pytest.raises(OutOfSpace):
            table.create(b"")
        return disk, store, table, caps

    def test_a_std_destroy_the_log_refuses_releases_nothing(self):
        """Regression: ``on_destroy`` ran before the table asked the log,
        so a refused STD_DESTROY released what a live object still held."""
        released = []

        class Releasing(ObjectServer):
            def on_destroy(self, entry):
                released.append(entry.number)

        net = SimNetwork()
        store = DurableStore(VirtualDisk(4, block_size=64),
                             codec=DefaultCodec())
        server = Releasing(Nic(net), rng=RandomSource(seed=1),
                           store=store).start()
        caps = [server.table.create(b"x" * 20) for _ in range(2)]
        client = ServiceClient(Nic(net), server.put_port,
                               rng=RandomSource(seed=2))
        with pytest.raises(OutOfSpace):
            client.destroy(caps[0])
        assert released == [] and server.table.numbers() == [0, 1]

    def test_a_blk_alloc_the_log_refuses_keeps_no_block(self):
        """Regression: a BLK_ALLOC whose create the log refused kept the
        disk block it had allocated for the object."""
        net = SimNetwork()
        store = DurableStore(VirtualDisk(4, block_size=64),
                             codec=DefaultCodec())
        server = BlockServer(Nic(net), disk=VirtualDisk(16, block_size=32),
                             rng=RandomSource(seed=1), store=store).start()
        client = BlockClient(Nic(net), server.put_port,
                             rng=RandomSource(seed=2))
        with pytest.raises(OutOfSpace):
            for _ in range(16):
                client.alloc()
        assert server.disk.used_blocks == len(server.table) > 0

    def test_an_age_the_log_refuses_part_way_releases_what_it_removed(self):
        """The sweep stops at the first removal the log refuses; the rows
        it removed before that still go through ``on_expire``, and the
        refused one stays, in memory and after a reboot."""
        disk, store, table, caps = self._full_log(0, 20, default_lifetime=1)
        expired = []
        with pytest.raises(OutOfSpace):
            table.age(on_expire=expired.append)
        assert [entry.number for entry in expired] == [caps[0].object]
        assert table.numbers() == [caps[1].object]
        with pytest.raises(NoSuchObject):
            table.lookup(caps[0])
        store.flush()
        _, rebooted, report = reattach(disk)
        assert not report.suspect and rebooted.numbers() == [caps[1].object]

    @pytest.mark.parametrize("after_writes", [0, 1, 2, 3])
    def test_power_failure_in_a_flush_leaves_it_owed(self, after_writes):
        disk = bare_disk(64, 64)
        log = ChainLog(disk)
        payloads = [b"a" * 20, b"b" * 150]  # the second spills twice
        for payload in payloads:
            log.append(payload, flush=False)
        disk.faults = DiskFaultPlan(power_fail_after=after_writes)
        with pytest.raises(PowerFailure):
            log.flush()
        assert log._unflushed
        disk.faults.revive()
        log.flush()
        assert not log._unflushed
        assert _scan_chain(disk, log.head).records == payloads

    def test_a_flush_with_nothing_owed_takes_no_lock(self):
        log = ChainLog(bare_disk(8))
        with log.lock:
            flusher = threading.Thread(target=log.flush, daemon=True)
            flusher.start()
            flusher.join(timeout=10)
            assert not flusher.is_alive()  # it did not wait for the lock
        log.append(b"owed", flush=False)
        assert log._unflushed and not log.lock.locked()
        log.flush()
        assert not log._unflushed


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

    def test_a_version_2_medium_is_refused_whole(self):
        """Version 2 logged destroy records without a generation: its
        medium is refused at attach, not half-replayed as suspect."""
        from repro.disk.wal import _SB

        disk = VirtualDisk(64)
        store = DurableStore(disk)
        fields = list(_SB.unpack_from(disk.read(store.epoch % 2)))
        fields[1], fields[4] = 2, 0
        fields[4] = zlib.crc32(_SB.pack(*fields))
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
    # Histories the model referees (test_wal_txn.py).
    test_round_trip_restores_entries_and_rejects_stale = history(
        *[("create",)] * 4, ("enter", 2, "a", 0), ("refresh", 2),
        ("restrict", 3, 0x01), ("destroy", 4), ("reboot",))
    test_fresh_numbers_do_not_collide_after_recovery = history(
        *[("create",)] * 3, ("reboot",), *[("create",)] * 3)

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
        assert not table2.apply(Record(REFRESH, 2, 3, stale_secret))
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
