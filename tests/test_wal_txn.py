"""One block write per durable transaction: ordering and crash points.

The write-ahead log buffers what a request's handler logs and writes it
with the commit record, once, before the reply leaves (ISSUE PR 12).
These tests pin the rules that make that safe:

* acked implies flushed, on every dispatch path and for deferred replies;
* delta records are idempotent assignments (a snapshot may already hold
  the change) and an undecodable one re-keys the table;
* a snapshot never records a replay position beyond the medium;
* a crash at *any* write — power failure or torn sector — recovers a
  prefix of the issued operations with every acked one in it, and a
  retry of the in-flight transaction replays or executes, never both;
  a plain power failure never leaves a suspect tail (PR 21: a flush
  that spills writes the linking block last), so it re-keys nothing.

(One log since PR 21; test ids that say "stripe" are kept from the
16-chain store.)
"""

import random
import struct
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ports import Port
from repro.core.registry import ObjectTable
from repro.core.schemes import scheme_by_name
from repro.crypto.randomsrc import RandomSource
from repro.disk.diskfaults import DiskFaultPlan
from repro.disk.virtualdisk import VirtualDisk
from repro.disk.wal import (
    OP_ENTRY,
    ChainLog,
    DefaultCodec,
    DurableStore,
    _scan_chain,
)
from repro.errors import (
    InvalidCapability,
    NameExists,
    NameNotFound,
    NoSuchObject,
    PowerFailure,
)
from repro.ipc.rpc import AsyncTrans, trans
from repro.ipc.server import command
from repro.ipc.stdops import STD_DESTROY, STD_REFRESH, USER_BASE
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.servers.directory import (
    DIR_CREATE,
    DIR_ENTER,
    DIR_LOOKUP,
    DIR_REMOVE,
    Directory,
    DirectoryClient,
    DirectoryCodec,
    DirectoryServer,
)

PORT = Port(0x0D15C0FFEE00)
SCHEME = scheme_by_name("xor-oneway")


def clone_disk(disk):
    """The medium as it is now, on a disk of its own — what a power cut
    at this instant would leave.  (Attaching a second store to the live
    disk would reclaim and truncate under the first one's feet.)"""
    copy = VirtualDisk(disk.n_blocks, block_size=disk.block_size)
    copy._blocks = dict(disk._blocks)
    copy._allocated = set(disk._allocated)
    copy._written = set(disk._written)
    copy._free = list(disk._free)
    return copy


def recover_directories(disk):
    """Recover a clone of ``disk``; returns ``(table, report)``."""
    store = DurableStore(clone_disk(disk), codec=DirectoryCodec())
    table = ObjectTable(SCHEME, PORT, rng=RandomSource(seed=99), wal=store)
    return table, store.recover(table, rng=RandomSource(seed=1234))


def names_on_medium(disk, number):
    """The directory ``number``'s entries as the medium alone has them."""
    table, report = recover_directories(disk)
    assert not report.suspect
    return dict(table._entry(number).data.entries)


def directory_table(disk):
    store = DurableStore(disk, codec=DirectoryCodec())
    table = ObjectTable(SCHEME, PORT, rng=RandomSource(seed=44), wal=store)
    return store, table


class RecordingDisk(VirtualDisk):
    """Appends ("write", block) to ``events`` on every block write."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.events = []

    def write(self, block_no, data):
        super().write(block_no, data)
        self.events.append(("write", block_no))


def record_reply_path(server, events):
    """Log ("cache", ...) and ("egress", ...) into ``events`` when the
    server completes and sends a reply."""
    cache_store = server.reply_cache.store if server.reply_cache else None
    node = server.node

    if cache_store is not None:
        def store(src, reply_value, reply):
            events.append(("cache", reply_value))
            cache_store(src, reply_value, reply)

        server.reply_cache.store = store

    for lane in ("put_owned", "put_owned_unicast_bulk"):
        original = getattr(node, lane)

        def send(*args, _original=original, _lane=lane):
            events.append(("egress", _lane))
            return _original(*args)

        setattr(node, lane, send)


def kinds(events):
    return [kind for kind, _ in events]


# ----------------------------------------------------------------------
# ChainLog / DurableStore: the flush rule itself
# ----------------------------------------------------------------------


class TestFlushRule:
    def test_append_outside_a_dispatch_is_on_the_medium(self):
        disk = VirtualDisk(1024)
        store, table = directory_table(disk)
        cap = table.create(Directory())
        target = table.create(Directory())
        table._entry(cap.object).data.entries["n"] = target
        table.persist(cap.object, delta=DirectoryCodec.set_delta("n", target))
        assert names_on_medium(disk, cap.object) == {"n": target}

    def test_appends_inside_a_dispatch_wait_for_one_write(self):
        disk = VirtualDisk(1024)
        store, table = directory_table(disk)
        cap = table.create(Directory())
        target = table.create(Directory())
        entries = table._entry(cap.object).data.entries
        before = disk.writes
        store.begin()
        for name in ("a", "b", "c"):
            entries[name] = target
            table.persist(
                cap.object, delta=DirectoryCodec.set_delta(name, target)
            )
        store.end()
        assert disk.writes == before
        assert names_on_medium(disk, cap.object) == {}
        store.flush()
        assert disk.writes == before + 1
        assert sorted(names_on_medium(disk, cap.object)) == ["a", "b", "c"]
        store.flush()  # nothing left owed
        assert disk.writes == before + 1

    def test_two_object_transaction_is_one_write_and_a_spill_links_last(self):
        """Mutations and the commit that vouches for them are one stream
        in append order, so the commit cannot reach the medium ahead of
        them: a transaction touching two objects is one block write.
        One that spills past the tail block writes the new blocks first
        and the old tail, whose pointer links them in, last."""
        disk = RecordingDisk(1024)
        store, table = directory_table(disk)
        caps = [table.create(Directory()) for _ in range(2)]
        target = table.create(Directory())
        del disk.events[:]
        store.begin()
        for cap in caps:
            table._entry(cap.object).data.entries["n"] = target
            table.persist(
                cap.object, delta=DirectoryCodec.set_delta("n", target)
            )
        table.log_commit(7, 8, b"reply")
        store.end()
        assert disk.events == [("write", store._log.tail)]
        recovered, report = recover_directories(disk)
        assert report.commits == {(7, 8): b"reply"}
        for cap in caps:
            assert recovered._entry(cap.object).data.entries == {"n": target}

        # The same transaction, big enough to spill over two blocks.
        old_tail = store._log.tail
        del disk.events[:]
        store.begin()
        for cap in caps:
            name = cap.object.to_bytes(1, "big").hex() * 300
            table._entry(cap.object).data.entries[name] = target
            table.persist(
                cap.object, delta=DirectoryCodec.set_delta(name, target)
            )
        assert disk.events == []  # a roll writes nothing by itself
        # Power fails before the linking write: the medium holds the
        # previous clean chain, nothing suspect, two blocks to reclaim.
        disk.faults = DiskFaultPlan(power_fail_after=2)
        with pytest.raises(PowerFailure):
            table.log_commit(9, 10, b"second")
        blocks = [block for _, block in disk.events]
        assert len(blocks) == 2 and blocks[0] == store._log.tail
        assert old_tail not in blocks
        recovered, report = recover_directories(disk)
        assert not report.suspect and report.blocks_reclaimed == 2
        assert report.commits == {(7, 8): b"reply"}
        # Power back: the flush goes through, the old tail last.
        disk.faults = None
        store.end()
        store.flush()
        assert disk.events[-1] == ("write", old_tail)
        recovered, report = recover_directories(disk)
        assert sorted(report.commits) == [(7, 8), (9, 10)]
        for cap in caps:
            assert len(recovered._entry(cap.object).data.entries) == 2

    def test_roll_writes_nothing_until_the_flush_links_it_in_last(self):
        disk = RecordingDisk(64, block_size=128)
        disk.reserve(0)
        disk.reserve(1)
        log = ChainLog(disk)
        old_tail = log.tail
        log.append(b"x" * 100)
        del disk.events[:]
        log.append(b"y" * 100, flush=False)  # rolls
        assert log.tail != old_tail
        assert disk.events == [] and not disk.is_written(log.tail)
        # What is on the medium is the previous clean chain.
        scan = _scan_chain(disk, log.head)
        assert scan.records == [b"x" * 100] and not scan.suspect
        log.flush()
        assert disk.events == [("write", log.tail), ("write", old_tail)]
        nxt, used = struct.unpack_from(">IH", disk.read(old_tail))
        assert (nxt, used) == (log.tail, log.capacity)
        scan = _scan_chain(disk, log.head)
        assert scan.records == [b"x" * 100, b"y" * 100] and not scan.suspect
        log.flush()  # nothing left owed
        assert len(disk.events) == 2

    def test_record_head_straddling_a_lost_roll_is_not_an_empty_record(self):
        """Two bytes of the next record's head fit the old block: magic
        and a zero length byte.  With the new block lost the rest reads
        as zeros — length 0, CRC 0, which is the CRC of nothing."""
        disk = VirtualDisk(64, block_size=128)
        disk.reserve(0)
        disk.reserve(1)
        log = ChainLog(disk)
        first = b"f" * (log.capacity - 9 - 2)
        log.append(first)
        # Rolls; the device loses the new block and keeps the old tail,
        # now pointing at it.
        disk.faults = DiskFaultPlan(lost_at={0})
        log.append(b"second")
        scan = _scan_chain(disk, log.head)
        assert scan.records == [first] and scan.suspect
        assert (scan.cut_index, scan.cut_offset) == (0, log.capacity - 2)

    def test_tail_position_flushes_first(self):
        disk = VirtualDisk(64, block_size=128)
        disk.reserve(0)
        disk.reserve(1)
        log = ChainLog(disk)
        log.append(b"unflushed", flush=False)
        block, offset = log.tail_position()
        _, used = struct.unpack_from(">IH", disk.read(block), 0)
        assert used == offset > 0

    def test_snapshot_mid_transaction_records_a_replayable_position(self):
        """Checkpoint while a transaction's bytes are unflushed, then
        lose power before its flush: the recorded position must not lie
        beyond the medium, or the *next* incarnation's appends would
        land before it and be skipped by the recovery after that."""
        disk = VirtualDisk(1024)
        store, table = directory_table(disk)
        cap = table.create(Directory())
        target = table.create(Directory())
        store.begin()
        table._entry(cap.object).data.entries["first"] = target
        table.persist(
            cap.object, delta=DirectoryCodec.set_delta("first", target)
        )
        store.snapshot(table)
        crashed = clone_disk(disk)  # power cut: the flush never happens

        store2, table2 = directory_table(crashed)
        assert not store2.recover(table2).suspect
        entries = table2._entry(cap.object).data.entries
        assert list(entries) == ["first"]
        entries["second"] = target
        table2.persist(
            cap.object, delta=DirectoryCodec.set_delta("second", target)
        )
        assert sorted(names_on_medium(crashed, cap.object)) == [
            "first", "second"
        ]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda table, cap: table.refresh(cap),
            lambda table, cap: table.destroy(cap),
            lambda table, cap: table.apply_refresh(cap.object, 12345, 9),
            lambda table, cap: table.apply_destroy(cap.object, 0),
            lambda table, cap: table.age(),
            lambda table, cap: table.persist(cap.object),
        ],
        ids=["refresh", "destroy", "apply_refresh", "apply_destroy", "age",
             "persist"],
    )
    def test_table_mutations_outside_a_dispatch_are_durable(self, mutate):
        disk = VirtualDisk(1024)
        store = DurableStore(disk, codec=DefaultCodec())
        table = ObjectTable(
            SCHEME, PORT, rng=RandomSource(seed=44), wal=store,
            default_lifetime=1,
        )
        cap = table.create("payload")
        table._entry(cap.object).data = "changed"
        mutate(table, cap)
        live = table._entries.get(cap.object)
        store2 = DurableStore(clone_disk(disk), codec=DefaultCodec())
        table2 = ObjectTable(
            SCHEME, PORT, rng=RandomSource(seed=1), wal=store2
        )
        store2.recover(table2)
        found = table2._entries.get(cap.object)
        if live is None:
            assert found is None
        else:
            assert (found.secret, found.generation) == (
                live.secret, live.generation
            )

    def test_two_threads_one_stripe_each_flush_covers_its_bytes(self):
        """Lost-update stress: threads inside dispatches append to the
        one log; after each thread's own flush returns, its record is on
        the medium (another thread's write may have carried it)."""
        disk = VirtualDisk(4096)
        store, table = directory_table(disk)
        cap = table.create(Directory())
        target = table.create(Directory())
        entries = table._entry(cap.object).data.entries
        errors = []

        def worker(tag):
            try:
                for i in range(40):
                    name = "%s-%d" % (tag, i)
                    store.begin()
                    entries[name] = target
                    table.persist(
                        cap.object,
                        delta=DirectoryCodec.set_delta(name, target),
                    )
                    store.end()
                    store.flush()
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=("t%d" % n,))
                for n in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert len(names_on_medium(disk, cap.object)) == 6 * 40


# ----------------------------------------------------------------------
# delta records
# ----------------------------------------------------------------------


class TestDeltaRecords:
    def test_round_trip(self):
        codec = DirectoryCodec()
        directory = Directory()
        cap = ObjectTable(SCHEME, PORT).create(None)
        assert codec.apply_delta(
            directory, codec.set_delta("name", cap)
        ) is directory
        assert directory.entries == {"name": cap}
        codec.apply_delta(directory, codec.delete_delta("name"))
        assert directory.entries == {}

    def test_replay_over_a_snapshot_that_holds_the_change_is_a_noop(self):
        """The race the idempotent-delta rule exists for: the handler
        mutates the directory, a checkpoint captures image and position,
        and only then does the handler's delta enter the log."""
        disk = VirtualDisk(1024)
        store, table = directory_table(disk)
        cap = table.create(Directory())
        keep, gone = table.create(Directory()), table.create(Directory())
        entries = table._entry(cap.object).data.entries
        entries["gone"] = gone
        table.persist(cap.object)

        entries["kept"] = keep
        del entries["gone"]
        store.snapshot(table)  # image already has both changes
        table.persist(cap.object, delta=DirectoryCodec.set_delta("kept", keep))
        table.persist(cap.object, delta=DirectoryCodec.delete_delta("gone"))

        recovered, report = recover_directories(disk)
        assert report.records_replayed >= 2 and not report.suspect
        assert recovered._entry(cap.object).data.entries == {"kept": keep}

    def test_delta_for_a_destroyed_object_is_skipped(self):
        disk = VirtualDisk(1024)
        store, table = directory_table(disk)
        cap = table.create(Directory())
        store.log_update(cap.object, None, DirectoryCodec.delete_delta("x"))
        table.destroy(cap)
        store.log_update(cap.object, None, DirectoryCodec.delete_delta("x"))
        recovered, report = recover_directories(disk)
        assert cap.object not in recovered and not report.suspect

    @pytest.mark.parametrize(
        "delta",
        [
            b"",
            b"\x01\x00",
            DirectoryCodec.delete_delta("name")[:-1],
            DirectoryCodec.delete_delta("name") + b"!",
            b"\x07" + DirectoryCodec.delete_delta("name")[1:],
            struct.pack(">BHH", 1, 1, 3) + b"nabc",  # mangled capability
        ],
    )
    def test_undecodable_delta_marks_the_stripe_suspect(self, delta):
        disk = VirtualDisk(1024)
        store, table = directory_table(disk)
        cap = table.create(Directory())
        store._log.append(
            bytes([6]) + cap.object.to_bytes(3, "big") + delta
        )
        recovered, report = recover_directories(disk)
        assert report.suspect
        assert report.secrets_regenerated == 1
        with pytest.raises(InvalidCapability):
            recovered.lookup(cap)

    def test_delta_under_a_codec_without_deltas_is_suspect(self):
        disk = VirtualDisk(1024)
        store = DurableStore(disk, codec=DefaultCodec())
        table = ObjectTable(
            SCHEME, PORT, rng=RandomSource(seed=44), wal=store
        )
        cap = table.create("text")
        table.persist(cap.object, delta=b"anything")
        store2 = DurableStore(clone_disk(disk), codec=DefaultCodec())
        table2 = ObjectTable(
            SCHEME, PORT, rng=RandomSource(seed=1), wal=store2
        )
        assert store2.recover(table2).suspect

    @pytest.mark.parametrize("keep", [3, 5, 9, 20, 27])
    def test_truncated_directory_image_is_suspect_not_a_traceback(self, keep):
        """A CRC-clean OP_ENTRY whose directory payload is short: the
        codec raises struct.error / MalformedCapability, neither of
        which recovery used to catch."""
        disk = VirtualDisk(1024)
        store, table = directory_table(disk)
        directory = Directory()
        directory.entries["name"] = table.create(Directory())
        cap = table.create(directory)
        entry = table._entry(cap.object)
        image = DirectoryCodec().encode(directory)[:keep]
        secret = entry.secret.to_bytes(8, "big")
        store._log.append(
            bytes([OP_ENTRY]) + cap.object.to_bytes(3, "big")
            + (0).to_bytes(4, "big") + b"\xff"
            + b"\x00" + len(secret).to_bytes(2, "big") + secret
            + len(image).to_bytes(4, "big") + image
        )
        recovered, report = recover_directories(disk)
        assert report.suspect
        assert report.secrets_regenerated >= 1
        with pytest.raises(InvalidCapability):
            recovered.lookup(cap)


# ----------------------------------------------------------------------
# the server: acked implies flushed, on every path
# ----------------------------------------------------------------------

OP_NOTE_DEFER = USER_BASE + 40
OP_RELEASE = USER_BASE + 41
OP_NESTED = USER_BASE + 42
OP_WRITE_THEN_CALL = USER_BASE + 43


class ScriptedDirectoryServer(DirectoryServer):
    """DirectoryServer plus handlers that defer a durable mutation and
    that re-enter dispatch on their own thread."""

    parked = None
    inner = None  # (nic, request) the nested handler sends
    executions = 0  # runs of the write-then-call handler

    def _note(self, entry, name):
        stored = self.table.mint_for(entry.number)
        entry.data.entries[name] = stored
        self.table.persist(
            entry.number, delta=DirectoryCodec.set_delta(name, stored)
        )

    @command(OP_NOTE_DEFER)
    def _note_defer(self, ctx):
        entry, _ = ctx.lookup()
        self._note(entry, ctx.request.data.decode())
        self.parked = ctx.defer()

    @command(OP_RELEASE)
    def _release(self, ctx):
        self.parked.send()
        return ctx.ok()

    @command(OP_NESTED)
    def _nested(self, ctx):
        entry, _ = ctx.lookup()
        self._note(entry, "outer-before")
        nic, request = self.inner
        assert trans(nic, self.put_port, request).status == 0
        self._note(entry, "outer-after")
        return ctx.ok()

    @command(OP_WRITE_THEN_CALL)
    def _write_then_call(self, ctx):
        """Every write comes *before* the nested call."""
        entry, _ = ctx.lookup()
        self._note(entry, "outer-before")
        self.executions += 1
        nic, request = self.inner
        assert trans(nic, self.put_port, request).status == 0
        return ctx.ok()


def server_world(synchronous=True, dedup=True, cls=ScriptedDirectoryServer):
    net = SimNetwork() if synchronous else SimNetwork(
        synchronous=False, auto_drain=False
    )
    disk = RecordingDisk(4096)
    server = cls(
        Nic(net), store=DurableStore(disk, codec=DirectoryCodec()),
        dedup=dedup, rng=RandomSource(seed=1),
    ).start()
    client = DirectoryClient(
        Nic(net), server.put_port, rng=RandomSource(seed=2),
        expect_signature=server.signature_image,
    )
    return net, disk, server, client


class TestReplyPathOrdering:
    def _one_write_then_cache_then_egress(self, events):
        assert kinds(events) == ["write", "cache", "egress"]

    def test_per_frame_path(self):
        net, disk, server, client = server_world()
        root, target = server.create_root(), server.create_root()
        events = disk.events
        record_reply_path(server, events)
        del events[:]
        client.enter(root, "name", target)
        self._one_write_then_cache_then_egress(events)
        assert names_on_medium(disk, root.object) == {"name": target}
        del events[:]
        client.lookup(root, "name")  # reads log nothing, write nothing
        assert kinds(events) == ["cache", "egress"]
        del events[:]
        client.remove(root, "name")
        self._one_write_then_cache_then_egress(events)
        assert names_on_medium(disk, root.object) == {}

    def test_batch_path(self):
        net, disk, server, client = server_world(synchronous=False)
        root, target = server.create_root(), server.create_root()
        events = disk.events
        record_reply_path(server, events)
        del events[:]
        client.enter(root, "name", target)
        self._one_write_then_cache_then_egress(events)
        assert events[-1] == ("egress", "put_owned_unicast_bulk")
        assert names_on_medium(disk, root.object) == {"name": target}

    def test_batch_path_six_in_flight(self):
        """One delivered run of six mutating requests: every handler's
        bytes are on the medium before its commit is cached, every
        commit before the run's one bulk egress — and every mutating
        request *gets* a commit."""
        net, disk, server, client = server_world(synchronous=False)
        dirs = [server.create_root() for _ in range(6)]
        target = server.create_root()
        for cap in dirs:
            client.enter(cap, "name", target)
        events = disk.events
        record_reply_path(server, events)
        del events[:]
        log = server.store._log
        first = log.tail
        node = client.node
        flights = [
            AsyncTrans(
                node, server.put_port,
                Message(command=DIR_REMOVE, capability=cap, data=b"name"),
                rng=RandomSource(seed=10 + i),
                expect_signature=server.signature_image,
            )
            for i, cap in enumerate(dirs)
        ]
        assert [f.result(timeout=5.0).status for f in flights] == [0] * 6
        # One write per request — except the second, whose bytes spill
        # out of the log's tail block: the new block, then the old tail
        # that links it in.
        second = log.tail
        assert second != first
        assert [e if e[0] == "write" else e[0] for e in events] == [
            ("write", first), "cache",
            ("write", second), ("write", first), "cache",
        ] + [("write", second), "cache"] * 4 + ["egress"]
        assert events[-1] == ("egress", "put_owned_unicast_bulk")
        table, report = recover_directories(disk)
        assert len(report.commits) == 6 + 6  # the enters, the removes
        for cap in dirs:
            assert table._entry(cap.object).data.entries == {}

    def test_dedup_off_flushes_before_egress(self):
        net, disk, server, client = server_world(dedup=None)
        root, target = server.create_root(), server.create_root()
        events = disk.events
        record_reply_path(server, events)
        del events[:]
        client.enter(root, "name", target)
        assert kinds(events) == ["write", "egress"]
        table, report = recover_directories(disk)
        assert not report.commits
        assert table._entry(root.object).data.entries == {"name": target}

    def test_deferred_reply_flushes_at_handler_exit_and_commits_on_send(self):
        net, disk, server, client = server_world()
        root = server.create_root()
        events = disk.events
        record_reply_path(server, events)
        del events[:]
        parked = AsyncTrans(
            client.node, server.put_port,
            Message(command=OP_NOTE_DEFER, capability=root, data=b"noted"),
            rng=RandomSource(seed=5),
            expect_signature=server.signature_image,
        )
        # Handler returned, no reply yet: its mutation is on the medium
        # (nothing would ever flush it otherwise) and no commit exists.
        assert kinds(events) == ["write"]
        assert parked.poll() is None
        table, report = recover_directories(disk)
        assert list(table._entry(root.object).data.entries) == ["noted"]
        assert not report.commits

        del events[:]
        client.call(OP_RELEASE, capability=root)
        # send() from inside RELEASE's dispatch: commit + write + cache
        # + egress for the parked transaction, then RELEASE's own reply
        # (it logged nothing: no write).
        assert kinds(events) == ["write", "cache", "egress", "cache", "egress"]
        assert parked.result().status == 0
        table, report = recover_directories(disk)
        assert len(report.commits) == 1

    def test_nested_dispatch_on_one_thread(self):
        net, disk, server, client = server_world()
        root, other, target = (server.create_root() for _ in range(3))
        server.inner = (
            Nic(net),
            Message(
                command=DIR_ENTER, capability=other, data=b"inner",
                extra_caps=(target,),
            ),
        )
        events = disk.events
        record_reply_path(server, events)
        del events[:]
        client.call(OP_NESTED, capability=root)
        # The inner transaction's reply left only after a write (which
        # carries the outer's first record early, being ahead of it in
        # the one stream — harmless); the outer's second record and
        # commit follow in the outer's own.
        assert kinds(events) == [
            "write", "cache", "egress",  # inner
            "write", "cache", "egress",  # outer
        ]
        table, report = recover_directories(disk)
        assert sorted(table._entry(root.object).data.entries) == [
            "outer-after", "outer-before"
        ]
        assert list(table._entry(other.object).data.entries) == ["inner"]
        assert len(report.commits) == 2

    def test_nested_read_does_not_take_the_outer_commit(self):
        """The outer handler writes, then transacts into a server on the
        same store, on its own thread; the inner request only reads.
        The commit record belongs to the outer request — with it on the
        medium a retry after a reboot is replayed, without it the
        non-idempotent handler would run a second time."""
        net, disk, server, client = server_world()
        root, other, target = (server.create_root() for _ in range(3))
        client.enter(other, "there", target)
        server.inner = (
            Nic(net),
            Message(command=DIR_LOOKUP, capability=other, data=b"there"),
        )
        secret = Port.random(RandomSource(seed=8))
        request = Message(command=OP_WRITE_THEN_CALL, capability=root)

        def issue(to):
            return AsyncTrans(
                client.node, to.put_port, request, reply_secret=secret,
                expect_signature=to.signature_image,
            ).result(timeout=2.0)

        events = disk.events
        record_reply_path(server, events)
        del events[:]
        assert issue(server).status == 0
        assert kinds(events) == [
            "write", "cache", "egress",  # inner: flushes root's record early
            "write", "cache", "egress",  # outer: its commit
        ]
        table, report = recover_directories(disk)
        assert list(table._entry(root.object).data.entries) == ["outer-before"]
        node = client.node
        assert (node.address, node.fbox.listen_port(secret).value) in (
            report.commits)
        # A read logs no commit of its own.
        inner_src = server.inner[0].address
        assert [key for key in report.commits if key[0] == inner_src] == []
        assert len(report.commits) == 2  # the set-up enter, the outer

        server.stop()
        reborn = ScriptedDirectoryServer(
            Nic(net), get_port=server.get_port, rng=RandomSource(seed=3),
            store=DurableStore(disk, codec=DirectoryCodec()), dedup=True,
        )
        reborn.reboot()
        reborn.start()
        assert issue(reborn).status == 0
        stats = reborn.reply_cache.stats()
        assert (stats["hits"], stats["misses"]) == (1, 0)  # replayed
        assert reborn.executions == 0

    def test_power_failure_in_the_write_sends_and_caches_nothing(self):
        net, disk, server, client = server_world()
        root, target = server.create_root(), server.create_root()
        events = disk.events
        record_reply_path(server, events)
        del events[:]
        disk.faults = DiskFaultPlan(power_fail_after=0)
        with pytest.raises(PowerFailure):
            client.enter(root, "name", target)
        assert events == []
        assert server.reply_cache.stats()["entries"] == 1  # still in progress
        disk.faults = None
        assert names_on_medium(disk, root.object) == {}

    def test_bootstrap_creates_are_durable_on_return(self):
        net, disk, server, client = server_world()
        root = server.create_root()
        direct = server.table.create(Directory())
        table, _ = recover_directories(disk)
        assert root.object in table and direct.object in table


class TestRebootObservability:
    def test_unreplayable_commit_is_counted_not_swallowed(self):
        net, disk, server, client = server_world(cls=DirectoryServer)
        root, target = server.create_root(), server.create_root()
        client.enter(root, "good", target)
        server.table.log_commit(77, 88, b"not a message")
        server.stop()
        reborn = DirectoryServer(
            Nic(net), store=DurableStore(disk, codec=DirectoryCodec()),
            dedup=True, rng=RandomSource(seed=3),
            get_port=server.get_port,
        )
        report = reborn.reboot()
        assert len(report.commits) == 2
        assert report.commits_unreplayable == 1
        assert report.commit_error is not None
        assert report.as_dict()["commits_unreplayable"] == 1
        assert reborn.reply_cache.stats()["entries"] == 1


# ----------------------------------------------------------------------
# crash-point sweep
# ----------------------------------------------------------------------

SWEEP_SEED = 20260930
SWEEP_BLOCK = 256  # small blocks: many rolls
#: The set-up creates the root (0) and the target (1); the script keeps
#: at most one *scratch* directory alive, so until a reboot it is always
#: this number — freed by a destroy, recycled by the next create.
SCRATCH = 2


def sweep_script(seed=SWEEP_SEED, length=80):
    """A seeded sequence of ENTER / REMOVE / LOOKUP on the root
    directory, DIR_CREATE / STD_REFRESH / STD_DESTROY on a scratch
    directory (a create after a destroy recycles the freed number) and
    checkpoints — and the shadow state after every prefix of it:
    ``(names in the root, the scratch row as (number, generation) or
    None)``."""
    rng = random.Random(seed)
    ops, names, scratch, next_generation = [], {}, None, 0
    states = [({}, None)]
    for i in range(length):
        roll = rng.random()
        if i and i % 9 == 0:
            op = ("checkpoint", None)
        elif roll < 0.3:
            if scratch is None:
                op = ("create", None)
                scratch = (SCRATCH, next_generation)
            elif rng.random() < 0.6:
                op = ("refresh", None)
                scratch = (SCRATCH, scratch[1] + 1)
            else:
                op = ("destroy", None)
                next_generation = scratch[1] + 1
                scratch = None
        elif names and roll < 0.5:
            op = ("remove", rng.choice(sorted(names)))
            del names[op[1]]
        elif names and roll < 0.65:
            op = ("lookup", rng.choice(sorted(names)))
        else:
            op = ("enter", "n%02d" % i)
            names[op[1]] = True
        ops.append(op)
        states.append((dict(names), scratch))
    return ops, states


class SweepWorld:
    """A durable directory server, a scripted client whose every
    transaction uses a reply secret the test chose (so the *same*
    transaction can be retried against the next incarnation), and a
    disk whose fault plan is armed only after set-up."""

    def __init__(self):
        self.net = SimNetwork()
        self.disk = VirtualDisk(4096, block_size=SWEEP_BLOCK)
        self.server = DirectoryServer.durable(
            Nic(self.net), self.disk, rng=RandomSource(seed=1)
        ).start()
        self.root = self.server.create_root()
        self.target = self.server.create_root()
        #: The live scratch directory's capability, and every scratch
        #: capability since refreshed away or destroyed.
        self.scratch = None
        self.revoked = []
        self.client_nic = Nic(self.net)
        self.secrets = RandomSource(seed=7)
        self.incarnations = 0
        self.setup_writes = self.disk.writes

    def request(self, op):
        kind, name = op
        if kind == "create":
            return Message(command=DIR_CREATE)
        if kind in ("refresh", "destroy"):
            opcode = STD_REFRESH if kind == "refresh" else STD_DESTROY
            return Message(command=opcode, capability=self.scratch)
        if kind == "enter":
            return Message(
                command=DIR_ENTER, capability=self.root,
                data=name.encode(), extra_caps=(self.target,),
            )
        opcode = DIR_REMOVE if kind == "remove" else DIR_LOOKUP
        return Message(command=opcode, capability=self.root,
                       data=name.encode())

    def issue(self, server, op, secret):
        flight = AsyncTrans(
            self.client_nic, server.put_port, self.request(op),
            reply_secret=secret, expect_signature=server.signature_image,
        )
        return flight.result(timeout=2.0)

    def settle(self, op, reply):
        """Fold an acknowledged operation into what the client holds."""
        assert reply.status == 0
        if op[0] in ("refresh", "destroy"):
            self.revoked.append(self.scratch)
            self.scratch = None
        if op[0] in ("create", "refresh"):
            self.scratch = reply.capability

    def run(self, ops):
        """Issue ``ops`` until one dies with the power; returns
        ``(index of the op in flight or None, its reply secret)``."""
        for index, op in enumerate(ops):
            secret = Port.random(self.secrets)
            try:
                if op[0] == "checkpoint":
                    self.server.checkpoint()
                else:
                    self.settle(op, self.issue(self.server, op, secret))
            except PowerFailure:
                return index, secret
        return None, None

    def reboot(self):
        self.server.stop()
        self.disk.faults = None
        # A seed of its own per incarnation: two that drew the same
        # stream would mint the same "fresh" secret in successive
        # refreshes, and a capability revoked by one validate again.
        self.incarnations += 1
        self.server = DirectoryServer(
            Nic(self.net), get_port=self.server.get_port,
            rng=RandomSource(seed=98 + self.incarnations),
            store=DurableStore(self.disk, codec=DirectoryCodec()),
            dedup=True,
        )
        report = self.server.reboot()
        self.server.start()
        return self.server, report

    def recovered_state(self, server):
        """``(names in the root directory, the scratch row as (number,
        generation) or None)`` — or None when the root did not survive."""
        table = server.table
        if self.root.object not in table:
            return None
        names = dict.fromkeys(table._entry(self.root.object).data.entries, True)
        scratch = [
            (number, table._entry(number).generation)
            for number in table.numbers()
            if number not in (self.root.object, self.target.object)
        ]
        assert len(scratch) <= 1
        return names, (scratch[0] if scratch else None)

    def rows(self, server):
        return sorted(
            (number, secret, generation, dict(data.entries))
            for number, secret, data, generation
            in server.table.snapshot_entries()
        )

    def check_capabilities(self, server, scratch=True):
        """What the client holds still validates — nothing was re-keyed
        — and what was refreshed away or destroyed stays refused."""
        table = server.table
        held = [self.root, self.target]
        if scratch and self.scratch is not None:
            held.append(self.scratch)
        for capability in held:
            table.lookup(capability)
        for capability in self.revoked:
            with pytest.raises((InvalidCapability, NoSuchObject)):
                table.lookup(capability)


def _sweep_length():
    world = SweepWorld()
    ops, _ = sweep_script()
    assert world.run(ops) == (None, None)
    return world.disk.writes - world.setup_writes


SWEEP_WRITES = _sweep_length()


class TestCrashPointSweep:
    def test_the_script_exercises_what_it_should(self):
        ops, states = sweep_script()
        kinds_seen = [op[0] for op in ops]
        assert set(kinds_seen) == {
            "enter", "remove", "lookup", "checkpoint",
            "create", "refresh", "destroy",
        }
        # Some create follows a destroy: it recycles the freed number,
        # one past the dead incarnation's generation.
        assert any(
            before is None and scratch is not None and scratch[1] > 0
            for (_, before), (_, scratch) in zip(states, states[1:])
        )
        # One write per mutation plus rolls and checkpoints — far fewer
        # than the two-plus per mutation of separate update and commit.
        mutations = sum(
            kind not in ("lookup", "checkpoint") for kind in kinds_seen
        )
        assert mutations < SWEEP_WRITES
        # The uncrashed run matches the shadow model, recycling included.
        world = SweepWorld()
        assert world.run(ops) == (None, None)
        assert world.recovered_state(world.server) == states[-1]
        world.check_capabilities(world.server)

    @pytest.mark.parametrize("ordinal", range(SWEEP_WRITES))
    def test_power_failure_at_every_write(self, ordinal):
        ops, states = sweep_script()
        world = SweepWorld()
        world.disk.faults = DiskFaultPlan(power_fail_after=ordinal)
        index, secret = world.run(ops)
        assert index is not None, "write %d never happened" % ordinal
        op = ops[index]
        reborn, report = world.reboot()
        # A flush group lands whole or not at all (the linking block is
        # written last), so no power failure leaves a torn tail: nothing
        # is suspect, nothing is re-keyed.
        assert not report.suspect and report.secrets_regenerated == 0
        state = world.recovered_state(reborn)

        # (i) + (ii): every acked operation is there, and what is there
        # is a prefix of what was issued — the in-flight operation
        # landed whole or not at all.
        assert state in (states[index], states[index + 1])
        world.check_capabilities(reborn, scratch=False)

        # A second reboot straight after the first is a fixed point.
        rows = world.rows(reborn)
        reborn, second = world.reboot()
        assert not second.suspect and second.commits == report.commits
        assert world.rows(reborn) == rows
        assert second.high_water == report.high_water
        if op[0] == "checkpoint":
            assert state == states[index]
            world.check_capabilities(reborn)
            return
        landed = state == states[index + 1] and states[index] != state

        # (iii): retry the very same transaction — it is replayed, or
        # runs for the first time, and never both.
        reply = world.issue(reborn, op, secret)
        assert reply.status not in (NameExists.code, NameNotFound.code)
        world.settle(op, reply)
        stats = reborn.reply_cache.stats()
        if landed:
            assert (stats["hits"], stats["misses"]) == (1, 0)  # replayed
        else:
            assert (stats["hits"], stats["misses"]) == (0, 1)  # first run
        expected = states[index + 1]
        if op[0] == "create" and not landed:
            # The free list died with the old incarnation: the number is
            # the first never used, not the one a dead object carried.
            expected = (expected[0], (report.high_water, 0))
        assert world.recovered_state(reborn) == expected
        world.check_capabilities(reborn)

    @pytest.mark.parametrize("ordinal", range(SWEEP_WRITES))
    def test_torn_write_at_every_write(self, ordinal):
        """The device acks a torn sector and the server carries on to
        the end of the script, then dies.  Either a later write of the
        same block healed the tear, or recovery finds it: the table is
        suspect, old capabilities are refused, what survives is a prefix
        — and never a traceback."""
        ops, states = sweep_script()
        world = SweepWorld()
        world.disk.faults = DiskFaultPlan(seed=ordinal, torn_at={ordinal})
        assert world.run(ops) == (None, None)
        reborn, report = world.reboot()
        state = world.recovered_state(reborn)
        probe = world.issue(reborn, ("lookup", "absent"), Port.random(
            world.secrets))
        if not report.suspect:
            assert state == states[-1]
            assert probe.status == NameNotFound.code
            world.check_capabilities(reborn)
            return
        assert state is None or state[0] in [names for names, _ in states]
        assert probe.status in (InvalidCapability.code, NoSuchObject.code)
        # Every pre-crash capability is refused.
        held = [world.root, world.target] + world.revoked
        if world.scratch is not None:
            held.append(world.scratch)
        for capability in held:
            with pytest.raises((InvalidCapability, NoSuchObject)):
                reborn.table.lookup(capability)
        if state is not None:
            # Service continues under a re-obtained capability.
            fresh = reborn.table.mint_for(world.root.object)
            client = DirectoryClient(
                world.client_nic, reborn.put_port, rng=RandomSource(seed=6),
                expect_signature=reborn.signature_image,
            )
            assert sorted(client.list(fresh)) == sorted(state[0])


# ----------------------------------------------------------------------
# generated sequences against a plain dict
# ----------------------------------------------------------------------

NAMES = ["a", "b", "c", "d"]

STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("enter"), st.sampled_from(NAMES)),
        st.tuples(st.just("remove"), st.sampled_from(NAMES)),
        st.tuples(st.just("create"), st.none()),
        st.tuples(st.just("refresh"), st.none()),
        st.tuples(st.just("destroy"), st.none()),
        st.tuples(st.just("checkpoint"), st.none()),
        st.tuples(st.just("reboot"), st.none()),
        st.tuples(st.just("power"), st.integers(0, 4)),
    ),
    max_size=30,
)


class TestGeneratedSequences:
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(STEPS)
    def test_directory_matches_a_dict_across_crashes(self, steps):
        """The model: the root's names as a dict, and at most one
        scratch directory as ``(number, generation)`` — created,
        refreshed, destroyed and re-created like the sweep's."""
        world = SweepWorld()
        names, scratch = {}, None
        last_generation = {}  # number -> the highest its rows ever had

        client_seeds = iter(range(100, 200))

        def client_for(server):
            # A fresh seed each time: reusing one would reissue old
            # reply ports, which the (durable) reply cache answers.
            return DirectoryClient(
                world.client_nic, server.put_port,
                rng=RandomSource(seed=next(client_seeds)),
                expect_signature=server.signature_image,
            )

        def reboot():
            # No power cut leaves a torn tail, so nothing is ever
            # re-keyed: the capabilities in hand stay good.
            server, report = world.reboot()
            assert not report.suspect and not report.secrets_regenerated
            return client_for(server)

        def matches(state, expected):
            return state == expected or (
                # A create lands on whatever number the table picks.
                expected[1] == "new" and state[0] == expected[0]
                and state[1] is not None
            )

        client = client_for(world.server)
        for kind, arg in steps:
            if kind == "power":
                # Power fails ``arg`` writes from now; whatever was in
                # flight then may or may not have landed.
                world.disk.faults = DiskFaultPlan(power_fail_after=arg)
                continue
            if kind in ("refresh", "destroy") and scratch is None:
                continue
            if kind == "create" and scratch is not None:
                continue
            before, after = (names, scratch), (dict(names), scratch)
            acked = True
            try:
                if kind == "enter":
                    after[0][arg] = True
                    client.enter(world.root, arg, world.target,
                                 overwrite=True)
                elif kind == "remove":
                    if after[0].pop(arg, None):
                        client.remove(world.root, arg)
                    else:
                        with pytest.raises(NameNotFound):
                            client.remove(world.root, arg)
                elif kind == "create":
                    after = (names, "new")
                    world.settle((kind,), client.call(DIR_CREATE))
                elif kind == "refresh":
                    after = (names, (scratch[0], scratch[1] + 1))
                    world.settle((kind,), client.call(
                        STD_REFRESH, capability=world.scratch))
                elif kind == "destroy":
                    after = (names, None)
                    world.settle((kind,), client.call(
                        STD_DESTROY, capability=world.scratch))
                elif kind == "checkpoint":
                    world.server.checkpoint()
                else:
                    client = reboot()
            except PowerFailure:
                acked = False
                client = reboot()
            state = world.recovered_state(world.server)
            assert matches(state, after) or (
                not acked and matches(state, before)
            )
            if state[1] != scratch:
                if not acked:
                    # It landed but its reply never arrived: re-obtain
                    # what the reply carried.
                    if world.scratch is not None:
                        world.revoked.append(world.scratch)
                    world.scratch = state[1] and (
                        world.server.table.mint_for(state[1][0])
                    )
                if state[1] is not None:
                    # The guard that keeps a dead object's revocation
                    # off a new one, reboots or not: a number's rows
                    # only ever rise in generation.
                    number, generation = state[1]
                    assert generation > last_generation.get(number, -1)
                    last_generation[number] = generation
            names, scratch = state
            world.check_capabilities(world.server)
        client = reboot()
        assert sorted(client.list(world.root)) == sorted(names)
        world.check_capabilities(world.server)
