"""Tests for replicated services: one logical port, N server processes.

Covers the replica set and its rotation, the wire codecs, the
pool's LOCATE answer, peer-applied revocation on the object table, the
epoch-guarded location cache, revocation fan-out (including under
fault injection on the control links), failover with member-wise
invalidation, per-replica duplicate suppression, and the OS-process
pool over UDP (forged membership datagrams included).
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ports import Port, PrivatePort
from repro.core.record import DELTA, DESTROY, ENTRY, REFRESH, UPDATE
from repro.core.record import Record, pack, unpack
from repro.core.rights import NO_RIGHTS
from repro.core.registry import ObjectTable
from repro.core.schemes import XorOneWayScheme
from repro.crypto.randomsrc import RandomSource
from repro.disk.virtualdisk import VirtualDisk
from repro.disk.wal import DefaultCodec, DurableStore, _scan_chain
from repro.errors import (
    AmoebaError,
    BadRequest,
    InvalidCapability,
    NoSuchObject,
    PortNotLocated,
    SecurityError,
)
from repro.ipc import stdops
from repro.ipc.client import ServiceClient
from repro.ipc.locate import LocationCache, Locator
from repro.ipc.replica import (
    ReplicaObjectServer,
    ReplicaSet,
    ReplicatedObjectServer,
    pack_here_payload,
    pack_machine,
    read_machine,
    unpack_here_payload,
)
from repro.ipc.rpc import RetryPolicy, trans
from repro.ipc.server import command
from repro.net.faults import FaultPlan, FaultSpec
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.testing.world import World
from repro.util.record import Reader


# ----------------------------------------------------------------------
# replica sets and their rotation
# ----------------------------------------------------------------------


class TestReplicaSet:
    def test_round_robin_rotates_start(self):
        rs = ReplicaSet([10, 20, 30])
        starts = [rs.select()[0] for _ in range(6)]
        assert starts == [10, 20, 30, 10, 20, 30]

    def test_round_robin_orders_are_full_rotations(self):
        rs = ReplicaSet([1, 2, 3])
        assert rs.select() == [1, 2, 3]
        assert rs.select() == [2, 3, 1]
        assert rs.select() == [3, 1, 2]

    def test_without_and_empty(self):
        rs = ReplicaSet([1, 2])
        smaller = rs.without(1)
        assert list(smaller) == [2]
        empty = smaller.without(2)
        assert len(empty) == 0
        assert empty.select() == []

    def test_container_protocol(self):
        rs = ReplicaSet([1, 2, 3])
        assert 2 in rs and 9 not in rs
        assert len(rs) == 3
        assert rs.members == ReplicaSet([1, 2, 3]).members


# ----------------------------------------------------------------------
# wire codecs
# ----------------------------------------------------------------------


class TestWireCodecs:
    def test_machine_round_trip_int(self):
        reader = Reader(pack_machine(123456))
        assert read_machine(reader) == 123456
        reader.end()

    def test_machine_round_trip_address(self):
        reader = Reader(pack_machine(("127.0.0.1", 54321)))
        assert read_machine(reader) == ("127.0.0.1", 54321)
        reader.end()

    def test_machine_truncation_rejected(self):
        raw = pack_machine(("localhost", 80))
        for cut in range(len(raw)):
            with pytest.raises(ValueError):
                read_machine(Reader(raw[:cut]))
        with pytest.raises(ValueError):
            read_machine(Reader(pack_machine(7)[:-1]))
        with pytest.raises(ValueError):
            read_machine(Reader(b"\x09"))  # unknown tag

    def test_here_payload_round_trip(self):
        port = Port(0xABCDEF012345)
        rs = ReplicaSet([3, ("h", 9), 7])
        payload = pack_here_payload(port, rs)
        assert payload[6] == 3  # port, then the member count
        back_port, back_rs = unpack_here_payload(payload)
        assert back_port == port
        assert back_rs.members == rs.members

    def test_here_payload_never_looks_legacy(self):
        # The locator distinguishes the extended HERE from the legacy
        # 6-byte one purely by length: even an empty set encodes longer
        # than a bare port (the count byte), and still decodes.
        for members in ([], [2]):
            payload = pack_here_payload(Port(1), ReplicaSet(members))
            assert len(payload) > len(Port(1).to_bytes())
            assert unpack_here_payload(payload)[1].members == tuple(members)

    def test_here_payload_trailing_bytes_rejected(self):
        payload = pack_here_payload(Port(1), ReplicaSet([2, 3]))
        with pytest.raises(ValueError):
            unpack_here_payload(payload + b"\x00")
        for cut in range(len(payload)):
            with pytest.raises(ValueError):
                unpack_here_payload(payload[:cut])
        too_many = bytearray(payload)
        too_many[6] = 3  # a count the members do not fill
        with pytest.raises(ValueError):
            unpack_here_payload(bytes(too_many))

    # The fan-out ships the write-ahead log's records (core/record.py).
    RECORDS = [
        Record(ENTRY, 7, 3, 0xDEADBEEF, None, b"row"),
        Record(ENTRY, 7, 3, b"\x00" * 16, 5, b""),
        Record(REFRESH, 7, 3, 0xDEADBEEF),
        Record(REFRESH, 7, 3, 0),
        Record(REFRESH, 7, 3, b"\x00" * 16),
        Record(DESTROY, 9, 2),
        Record(UPDATE, 0xFFFFFF, data=b"payload"),
        Record(DELTA, 4, data=b"\x01delta"),
    ]

    def test_refresh_payload_round_trip_int_secret(self):
        for record in self.RECORDS:
            if not isinstance(record.secret, bytes):
                assert unpack(pack(record)) == record

    def test_refresh_payload_round_trip_bytes_secret(self):
        for record in self.RECORDS:
            if isinstance(record.secret, bytes):
                assert unpack(pack(record)) == record

    def test_row_data_round_trips_through_the_codec_given(self):
        codec = DefaultCodec()
        for data in (None, "text", 12, True, b"raw"):
            for record in (Record(ENTRY, 1, 2, 5, None, data),
                           Record(UPDATE, 1, data=data)):
                assert unpack(pack(record, codec), codec) == record

    def test_destroy_payload_round_trip(self):
        raw = pack(Record(DESTROY, 9, 2))
        assert raw == bytes([DESTROY, 0, 0, 9, 0, 0, 0, 2])
        assert unpack(raw) == (DESTROY, 9, 2, None, None, None)
        with pytest.raises(ValueError):
            unpack(raw + b"\x00")

    def test_short_or_mistagged_revocation_is_value_error(self):
        """Every framing defect of a record is ValueError — never the
        ``struct.error`` a short head used to raise — so one ``except``
        at each boundary covers them all.  (A delta is the rest of its
        record, so only its head can be cut short.)"""
        for record in self.RECORDS:
            raw = pack(record)
            for cut in range(4 if record.op == DELTA else len(raw)):
                with pytest.raises(ValueError):
                    unpack(raw[:cut])
            if record.op != DELTA:
                with pytest.raises(ValueError):
                    unpack(raw + b"\x00")
        unknown_tag = bytearray(pack(Record(REFRESH, 7, 3, 0xDEADBEEF)))
        unknown_tag[8] = 9
        for mangled in (unknown_tag, b"\x05\x00\x00\x07", b"\x09" * 8):
            with pytest.raises(ValueError):
                unpack(bytes(mangled))

    def test_the_wire_secret_is_the_logs_secret(self):
        """One record for the replica wire and the write-ahead log: the
        same function, the same tagged secret."""
        from repro.disk import wal
        from repro.ipc import replica
        from repro.util import record

        assert wal.pack is replica.pack is pack
        assert pack(Record(REFRESH, 1, 2, 5))[8:] == record.pack_secret(5)


# ----------------------------------------------------------------------
# membership: the pool's LOCATE answer
# ----------------------------------------------------------------------


class TestPoolLocateAnswer:
    @pytest.mark.parametrize("station", ["synchronous", "deferred", "des"])
    def test_the_pool_answers_its_own_port_only(self, worlds, station):
        """LOCATE for the pool's put-port answers ``members`` in replica
        order; LOCATE for any other port gets no HERE from any member."""
        world = worlds(World, station)
        pool = ReplicatedObjectServer(world.net, replicas=3,
                                      rng=RandomSource(7)).start()
        client = world.node()
        try:
            assert pool.members == tuple(
                server.node.address for server in pool.servers)
            located = Locator(client, rng=RandomSource(9)).locate(
                pool.put_port)
            assert located.members == pool.members

            sent = sum(server.node.sent for server in pool.servers)
            other = PrivatePort.generate(RandomSource(11)).public
            with pytest.raises(PortNotLocated):
                Locator(client, rng=RandomSource(13)).locate(
                    other, timeout=0.05)
            assert sum(server.node.sent for server in pool.servers) == sent
        finally:
            pool.stop()


# ----------------------------------------------------------------------
# peer-applied revocation on the object table
# ----------------------------------------------------------------------


class TestApplyRevocation:
    def _table(self):
        rng = RandomSource(1)
        return ObjectTable(XorOneWayScheme(), PrivatePort.generate(rng).public, rng)

    def test_apply_refresh_installs_peer_secret(self):
        table = self._table()
        cap = table.create(b"x")
        assert table.apply(Record(REFRESH, cap.object, 1, 0x123456)) is True
        with pytest.raises(InvalidCapability):
            table.lookup(cap)

    def test_apply_refresh_rejects_stale_generation(self):
        table = self._table()
        cap = table.create(b"x")
        assert table.apply(Record(REFRESH, cap.object, 1, 0x1)) is True
        # A duplicate or reordered copy of the same (or older) refresh
        # must be a no-op: the guard is the generation number.
        assert table.apply(Record(REFRESH, cap.object, 1, 0x2)) is False
        assert table.apply(Record(REFRESH, cap.object, 0, 0x2)) is False

    def test_apply_destroy_is_idempotent(self):
        table = self._table()
        cap = table.create(b"x")
        assert table.apply(Record(DESTROY, cap.object, 0)) is True
        assert table.apply(Record(DESTROY, cap.object, 0)) is False
        with pytest.raises(NoSuchObject):
            table.lookup(cap)

    def test_apply_revocation_fires_cache_hook(self):
        table = self._table()
        cap = table.create(b"x")
        fired = []
        table.on_revocation(lambda *args: fired.append(args))
        table.apply(Record(REFRESH, cap.object, 1, 0x9))
        table.apply(Record(DESTROY, cap.object, 1))
        assert len(fired) == 2

    def test_apply_destroy_refuses_a_row_newer_than_the_record(self):
        table = self._table()
        cap = table.create(b"x")
        fresh = table.refresh(cap)  # generation 1
        assert table.apply(Record(DESTROY, cap.object, 0)) is False
        table.lookup(fresh)
        assert table.apply(Record(DESTROY, cap.object, 1)) is True

    def test_a_number_a_peer_destroyed_resumes_above_the_record(self):
        """The peer destroyed at a generation this row never reached:
        the number's next object starts above it, so the refreshes still
        queued for the dead one bounce off the new one."""
        table = self._table()
        cap = table.create(b"x")
        assert table.apply(Record(DESTROY, cap.object, 2))
        again = table.create(b"y")
        assert again.object == cap.object
        assert not table.apply(Record(REFRESH, cap.object, 2, 0xBAD))
        assert table.lookup(again)[0].data == b"y"

    def test_a_recycled_number_resumes_above_its_last_generation(self):
        table = self._table()
        first = table.create(b"x")
        assert table._entry(first.object).generation == 0  # fresh: 0
        table.destroy(table.refresh(first))  # dies at generation 1
        second = table.create(b"y")
        assert second.object == first.object
        assert table._entry(second.object).generation == 2
        # What was still in flight for the first object bounces off.
        assert table.apply(Record(REFRESH, second.object, 1, 0xBAD)) is False
        assert table.apply(Record(DESTROY, second.object, 1)) is False
        assert table.lookup(second)[0].data == b"y"


class TestOneRecordStreamConverges:
    """Replicas that apply one deterministic, idempotent record stream
    converge: a peer fed a primary's refresh and destroy records,
    duplicated and in any order, over rows mirrored by entry records,
    ends with the primary's rows; so does a recovery of the primary's
    disk, and one of a log that holds the peer's stream."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(ops=st.lists(st.tuples(
        st.sampled_from(("create", "refresh", "destroy")),
        st.integers(0, 3)), max_size=30), shuffle=st.randoms())
    def test_peer_and_recovery_end_with_the_primarys_rows(self, ops, shuffle):
        scheme, port = XorOneWayScheme(), Port(0x5EED)
        disk = VirtualDisk(1024)
        store = DurableStore(disk)
        primary = ObjectTable(scheme, port, RandomSource(1), wal=store)
        caps = []
        for op, index in ops:  # a create after a destroy recycles
            if op == "create" or not caps:
                caps.append(primary.create(b"row %d" % len(caps)))
            elif op == "refresh":
                index %= len(caps)
                caps[index] = primary.refresh(caps[index])
            else:
                primary.destroy(caps.pop(index % len(caps)))
        expected = sorted(primary.snapshot_entries())
        records = [unpack(raw, store.codec)
                   for raw in _scan_chain(disk, store._log.head).records]
        entries = [record for record in records if record.op == ENTRY]
        stream = [record for record in records if record.op != ENTRY] * 2
        shuffle.shuffle(stream)

        peer = ObjectTable(scheme, port)
        for record in entries + stream:
            peer.apply(record)
        assert sorted(peer.snapshot_entries()) == expected
        replayed = DurableStore(VirtualDisk(1024))
        for record in entries + stream:
            replayed.log(record)
        for medium in (replayed.disk, disk):
            table = ObjectTable(scheme, port, wal=DurableStore(medium))
            table._wal.recover(table)
            assert sorted(table.snapshot_entries()) == expected


# ----------------------------------------------------------------------
# epoch-guarded location cache (the stale-mapping race)
# ----------------------------------------------------------------------


class TestLocationCacheEpochs:
    def test_put_with_stale_epoch_is_discarded(self):
        cache = LocationCache()
        port = Port(7)
        epoch = cache.epoch
        cache.invalidate(port)  # crash detected while locate in flight
        assert cache.put(port, 99, epoch=epoch) is False
        assert cache.get(port) is None

    def test_put_with_current_epoch_lands(self):
        cache = LocationCache()
        port = Port(7)
        assert cache.put(port, 99, epoch=cache.epoch) is True
        assert cache.get(port) == 99

    def test_invalidate_member_keeps_survivors_and_bumps_epoch(self):
        cache = LocationCache()
        port = Port(3)
        cache.put(port, ReplicaSet([1, 2, 3]))
        epoch = cache.epoch
        assert cache.invalidate_member(port, 2) is True
        assert list(cache.get(port)) == [1, 3]
        assert cache.epoch == epoch + 1
        assert cache.invalidate_member(port, 2) is False

    def test_invalidate_last_member_drops_mapping(self):
        cache = LocationCache()
        port = Port(3)
        cache.put(port, ReplicaSet([1]))
        assert cache.invalidate_member(port, 1) is True
        assert cache.get(port) is None

    def test_invalidate_member_on_single_machine_mapping(self):
        cache = LocationCache()
        port = Port(3)
        cache.put(port, 42)
        assert cache.invalidate_member(port, 41) is False
        assert cache.invalidate_member(port, 42) is True
        assert cache.get(port) is None

    def test_threaded_invalidation_race_regression(self):
        """The race the epoch guard exists for: a locate snapshots the
        epoch, a crash-detection invalidate lands *while the broadcast
        round trip is in flight*, then the locate's put arrives.  The
        put must lose — a resurrected mapping would point every
        subsequent send at the dead machine."""
        cache = LocationCache()
        port = Port(11)
        rounds = 200
        resurrections = []
        snapshotted = threading.Barrier(2)
        invalidated = threading.Barrier(2)
        done = threading.Barrier(2)

        def locator_side():
            for _ in range(rounds):
                epoch = cache.epoch  # snapshot, then "broadcast"
                snapshotted.wait()
                invalidated.wait()         # crash detected in between
                stored = cache.put(port, "stale-machine", epoch=epoch)
                if stored:
                    resurrections.append(cache.get(port))
                done.wait()

        def crash_detector_side():
            for _ in range(rounds):
                snapshotted.wait()
                cache.invalidate(port)
                invalidated.wait()
                done.wait()

        threads = [
            threading.Thread(target=locator_side),
            threading.Thread(target=crash_detector_side),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every put raced a completed invalidate of its stripe: with the
        # epoch snapshotted beforehand, all of them must lose — one
        # success is a resurrected mapping pointing at a dead machine.
        assert resurrections == []
        assert cache.get(port) is None


# ----------------------------------------------------------------------
# the in-process replicated service
# ----------------------------------------------------------------------


@pytest.fixture
def sim_pool():
    net = SimNetwork(synchronous=True)
    pool = ReplicatedObjectServer(net, replicas=4, rng=RandomSource(7)).start()
    client_node = Nic(net)
    locator = Locator(client_node, rng=RandomSource(9))
    client = ServiceClient(
        client_node,
        pool.put_port,
        rng=RandomSource(11),
        expect_signature=pool.signature.public,
        locator=locator,
    )
    yield net, pool, client, locator
    pool.stop()


class TestReplicatedService:
    def test_locate_resolves_to_replica_set(self, sim_pool):
        _net, pool, client, locator = sim_pool
        cap = pool.create(b"payload")
        client.info(cap)
        located = locator.cache.get(pool.put_port)
        assert getattr(located, "is_replica_set", False)
        assert len(located) == 4

    def test_requests_spread_across_replicas(self, sim_pool):
        _net, pool, client, _locator = sim_pool
        cap = pool.create(b"payload")
        for _ in range(8):
            client.touch(cap)
        served = [
            server.request_counts[stdops.STD_TOUCH] for server in pool.servers
        ]
        assert sum(served) == 8
        assert max(served) < 8  # not all pinned to one member

    def test_refresh_fans_out_to_every_replica(self, sim_pool):
        _net, pool, client, _locator = sim_pool
        cap = pool.create(b"payload")
        fresh = client.refresh(cap)
        for server in pool.servers:
            with pytest.raises(InvalidCapability):
                server.table.lookup(cap)
            server.table.lookup(fresh)  # the fresh capability works
        assert sum(s.fanout_sent for s in pool.servers) == 3
        assert all(not s.fanout_failures for s in pool.servers)

    def test_destroy_fans_out_to_every_replica(self, sim_pool):
        _net, pool, client, _locator = sim_pool
        cap = pool.create(b"payload")
        client.destroy(cap)
        for server in pool.servers:
            with pytest.raises((InvalidCapability, NoSuchObject)):
                server.table.lookup(cap)

    def test_aging_fans_out_to_every_replica(self, sim_pool):
        _net, pool, _client, _locator = sim_pool
        cap = pool.create(b"payload")
        sweeper = pool.servers[0]
        entry = sweeper.table._entry(cap.object)
        entry.lifetime = 1
        expired = sweeper.sweep()
        assert [e.number for e in expired] == [cap.object]
        for server in pool.servers:
            with pytest.raises((InvalidCapability, NoSuchObject)):
                server.table.lookup(cap)

    def test_failover_invalidates_only_the_dead_member(self, sim_pool):
        _net, pool, client, locator = sim_pool
        cap = pool.create(b"payload")
        client.touch(cap)  # populate the cache with the full set
        dead = pool.kill(1)
        # Round-robin eventually starts a call at the dead member; that
        # call fails over to the next candidate and succeeds, forgetting
        # only the member that timed out.
        for _ in range(4):
            client.touch(cap)
        cached = locator.cache.get(pool.put_port)
        assert dead.node.address not in cached
        assert len(cached) == 3
        live = {s.node.address for s in pool.servers if s.running}
        assert set(cached) == live

    def test_control_commands_require_service_signature(self, sim_pool):
        net, pool, _client, _locator = sim_pool
        cap = pool.create(b"payload")
        intruder = Nic(net)
        forged = Message(
            command=stdops.CTL_APPLY,
            data=pack(Record(DESTROY, cap.object, 0)),
        )
        reply = trans(
            intruder,
            pool.put_port,
            forged,
            rng=RandomSource(13),
            timeout=1.0,
            dst_machine=pool.servers[0].node.address,
        )
        assert reply.status == SecurityError.code
        # The forgery changed nothing: the object is still there.
        pool.servers[0].table.lookup(cap)

    def test_a_peer_ships_only_refresh_and_destroy(self, sim_pool):
        """A signed CTL_APPLY carrying any other record — a row to
        install, a payload to overwrite — is refused whole."""
        net, pool, _client, _locator = sim_pool
        cap = pool.create(b"payload")
        member = pool.servers[0]
        for record in (Record(ENTRY, cap.object, 9, 1, None, b"seeded"),
                       Record(UPDATE, cap.object, data=b"overwritten")):
            reply = trans(
                Nic(net), pool.put_port,
                Message(command=stdops.CTL_APPLY, data=pack(record)),
                rng=RandomSource(13), timeout=1.0, signature=pool.signature,
                dst_machine=member.node.address,
            )
            assert reply.status == BadRequest.code
        assert member.table.lookup(cap)[0].data == b"payload"

    def test_fanout_failure_is_recorded_not_raised(self, sim_pool):
        _net, pool, client, _locator = sim_pool
        cap = pool.create(b"payload")
        victim = pool.servers[2]
        pool.kill(2)
        fresh = client.refresh(cap)
        # The refresh succeeded for the client despite the dead peer...
        origin = next(s for s in pool.servers if s.fanout_failures)
        assert any(
            machine == victim.node.address
            for machine, _op, _number in origin.fanout_failures
        )
        # ...and every *live* replica still applied it.
        for server in pool.servers:
            if not server.running:
                continue
            with pytest.raises(InvalidCapability):
                server.table.lookup(cap)
            server.table.lookup(fresh)


def _ask(net, pool, command, capability, member, seed):
    """One transaction with one member of ``pool``, asked directly."""
    return trans(
        Nic(net), pool.put_port,
        Message(command=command, capability=capability),
        rng=RandomSource(seed), timeout=1.0,
        expect_signature=pool.signature.public,
        dst_machine=pool.servers[member].node.address,
    )


class TestTheGuardSurvivesRecycling:
    """§2.3 regression: a freed object number's next incarnation used
    to restart at generation 0, so a refresh or destroy still queued for
    ``reconcile()`` passed the generation guard *on the new object*."""

    @pytest.fixture
    def pair(self):
        net = SimNetwork(synchronous=True)
        pool = ReplicatedObjectServer(
            net, replicas=2, rng=RandomSource(7),
            fanout_retry=RetryPolicy(attempts=1, rto=0.01, cap=0.01, seed=1),
            fanout_timeout=0.05,
        ).start()
        yield net, pool
        pool.stop()

    def test_a_queued_refresh_cannot_land_on_the_numbers_next_object(
            self, pair):
        net, pool = pair
        old = pool.create(b"old")
        pool.kill(1)  # peer 1 dark: the refresh fan-out is queued
        fresh = _ask(net, pool, stdops.STD_REFRESH, old, 0, 1).capability
        pool.servers[1].start()
        assert _ask(net, pool, stdops.STD_DESTROY, fresh, 0, 2).status == 0
        new = pool.create(b"new")
        assert new.object == old.object  # the number was recycled
        assert pool.reconcile() == 1  # delivered, and refused by the guard
        for member in range(2):
            for dead in (old, fresh):
                status = _ask(
                    net, pool, stdops.STD_TOUCH, dead, member, 3).status
                assert status == InvalidCapability.code
            assert _ask(
                net, pool, stdops.STD_TOUCH, new, member, 4).status == 0
            assert pool.servers[member].table.lookup(new)[0].data == b"new"

    def test_a_queued_destroy_cannot_delete_the_numbers_next_object(
            self, pair):
        net, pool = pair
        old = pool.create(b"old")
        pool.kill(1)  # peer 1 dark: the destroy fan-out is queued
        assert _ask(net, pool, stdops.STD_DESTROY, old, 0, 1).status == 0
        pool.servers[1].start()
        new = pool.create(b"new")
        assert new.object == old.object
        assert pool.reconcile() == 1
        for member in range(2):
            assert _ask(
                net, pool, stdops.STD_TOUCH, new, member, 2).status == 0
            status = _ask(net, pool, stdops.STD_TOUCH, old, member, 3).status
            assert status == InvalidCapability.code


class TestARefusedFanOutIsAFailure:
    def test_an_error_reply_is_queued_for_reconcile(self, sim_pool, monkeypatch):
        """Regression: the fan-out sender used to discard the peer's
        reply, so a peer whose handler raised was counted as told and
        the revoked capability lived on there, with nothing queued."""
        net, pool, _client, _locator = sim_pool
        cap = pool.create(b"payload")
        origin, lagging = pool.servers[0], pool.servers[1]

        def broken(*args):
            raise RuntimeError("disk full")

        monkeypatch.setattr(lagging.table, "apply", broken)
        fresh = _ask(net, pool, stdops.STD_REFRESH, cap, 0, 1).capability
        assert origin.fanout_sent == 2  # the two peers that obeyed
        assert origin.fanout_pending == 1
        assert origin.fanout_failures == [
            (lagging.node.address, "refresh", cap.object)
        ]
        lagging.table.lookup(cap)  # still valid there: not yet told
        monkeypatch.undo()
        assert pool.reconcile() == 1
        assert origin.fanout_pending == 0
        with pytest.raises(InvalidCapability):
            lagging.table.lookup(cap)
        lagging.table.lookup(fresh)


class TestFanOutUnderFaults:
    """Satellite: revocation fan-out under drop/delay on control links.

    The FaultPlan targets only replica-to-replica links, so client
    traffic is clean while the control plane suffers; the at-least-once
    fan-out retry must still converge every replica — including the
    lagging one — to rejecting the revoked capability."""

    def _lossy_pool(self, drop, delay=0.0, replicas=4):
        rng = RandomSource(7)
        # Build once to learn the machine numbers (deterministic: Nic
        # attachment order), then rebuild with the per-link fault plan.
        probe_net = SimNetwork(synchronous=True)
        probe = ReplicatedObjectServer(probe_net, replicas=replicas, rng=rng)
        machines = [s.node.address for s in probe.servers]
        probe.stop()
        links = {
            (a, b): FaultSpec(drop=drop, delay=delay)
            for a in machines
            for b in machines
            if a != b
        }
        net = SimNetwork(
            synchronous=True, faults=FaultPlan(seed=21, links=links)
        )
        pool = ReplicatedObjectServer(
            net,
            replicas=replicas,
            rng=RandomSource(7),
            fanout_retry=RetryPolicy(attempts=8, rto=0.01, cap=0.05, seed=5),
        ).start()
        return net, pool

    def test_refresh_converges_under_dropped_control_frames(self):
        net, pool = self._lossy_pool(drop=0.3)
        try:
            cap = pool.create(b"under-fire")
            client = ServiceClient(
                Nic(net),
                pool.put_port,
                rng=RandomSource(31),
                expect_signature=pool.signature.public,
                locator=Locator(Nic(net), rng=RandomSource(33)),
            )
            fresh = client.refresh(cap)
            assert all(not s.fanout_failures for s in pool.servers)
            for server in pool.servers:
                with pytest.raises(InvalidCapability):
                    server.table.lookup(cap)
                server.table.lookup(fresh)
        finally:
            pool.stop()

    def test_destroy_converges_under_drop_and_delay(self):
        net, pool = self._lossy_pool(drop=0.2, delay=0.3)
        try:
            cap = pool.create(b"under-fire")
            client = ServiceClient(
                Nic(net),
                pool.put_port,
                rng=RandomSource(41),
                expect_signature=pool.signature.public,
                locator=Locator(Nic(net), rng=RandomSource(43)),
            )
            client.destroy(cap)
            assert all(not s.fanout_failures for s in pool.servers)
            for server in pool.servers:
                with pytest.raises((InvalidCapability, NoSuchObject)):
                    server.table.lookup(cap)
        finally:
            pool.stop()


class _CountingServer(ReplicaObjectServer):
    """A replica server with one user op that must never double-run."""

    INCREMENT = stdops.USER_BASE

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.executions = 0

    @command(stdops.USER_BASE, needs=NO_RIGHTS)
    def _user_increment(self, ctx):
        self.executions += 1
        return ctx.ok(data=b"%d" % self.executions)


class TestPerReplicaDedup:
    def test_duplicated_requests_execute_once_per_transaction(self):
        """Wire duplicates of a transaction land on the same replica
        (unicast retransmission) and must be absorbed by *that*
        replica's ReplyCache — at-least-once across the pool without a
        single double-execution on any member."""
        net = SimNetwork(
            synchronous=True, faults=FaultPlan(seed=3, duplicate=0.5)
        )
        pool = ReplicatedObjectServer(
            net,
            replicas=3,
            rng=RandomSource(7),
            server_cls=_CountingServer,
        ).start()
        try:
            cap = pool.create(b"counter")
            client = ServiceClient(
                Nic(net),
                pool.put_port,
                rng=RandomSource(51),
                expect_signature=pool.signature.public,
                locator=Locator(Nic(net), rng=RandomSource(53)),
                retry=RetryPolicy(attempts=4, rto=0.01, cap=0.05, seed=1),
            )
            transactions = 20
            for _ in range(transactions):
                client.call(_CountingServer.INCREMENT, capability=cap)
            executed = sum(s.executions for s in pool.servers)
            duplicates_absorbed = sum(
                s.reply_cache.hits for s in pool.servers
            )
            assert executed == transactions
            assert duplicates_absorbed > 0  # the fault plan actually fired
        finally:
            pool.stop()


# ----------------------------------------------------------------------
# sockets: the OS-process pool
# ----------------------------------------------------------------------


@pytest.mark.integration
class TestForgedMembershipDatagrams:
    def test_a_third_station_cannot_rewrite_the_pool(self):
        """Negative control for the removed socket control lane: the
        datagrams that once joined and evicted members (``AC1`` + kind +
        put-port + packed machine) are garbage to the arbiter now, so a
        loopback intruder can neither evict a member nor join itself."""
        import socket
        import time

        pool = ReplicatedObjectServer(replicas=2)
        intruder = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        intruder.bind(("127.0.0.1", 0))
        try:
            arbiter = pool.arbiter
            members = pool.members
            port = pool.put_port.to_bytes()
            forged = (
                b"AC1L" + port + pack_machine(members[0]),
                b"AC1J" + port + pack_machine(intruder.getsockname()),
            )
            for raw in forged:
                intruder.sendto(raw, arbiter.address)
            deadline = time.monotonic() + 2.0
            while (arbiter.garbage_dropped < len(forged)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert pool.members == members
            assert pool.replica_set().members == members
            assert arbiter.garbage_dropped == len(forged)
            assert all(pool.health(i) for i in range(2))
        finally:
            intruder.close()
            pool.stop()


@pytest.mark.integration
class TestReplicaPoolUDP:
    def test_pool_end_to_end(self):
        """Fork a 3-process pool: locate resolves the whole pool over
        the wire, revocation fans out across OS processes, and a
        SIGKILLed replica is survived by failover with only the dead
        member forgotten."""
        from repro.net.sockets import SocketNode

        pool = ReplicatedObjectServer(replicas=3, objects=1, payload=b"udp")
        client_node = SocketNode()
        try:
            assert len(pool.members) == 3
            assert all(pool.health(i) for i in range(3))
            client_node.connect(pool.arbiter.address)
            locator = Locator(client_node, rng=RandomSource(3))
            client = ServiceClient(
                client_node,
                pool.put_port,
                rng=RandomSource(5),
                expect_signature=pool.signature.public,
                locator=locator,
                timeout=4.0,
            )
            cap = pool.capabilities[0]
            assert "object 0" in client.info(cap)
            located = locator.cache.get(pool.put_port)
            assert getattr(located, "is_replica_set", False)
            assert len(located) == 3

            fresh = client.refresh(cap)
            # Every replica process — asked directly, not via the set —
            # must reject the revoked capability and accept the fresh.
            for i, addr in enumerate(pool.members):
                old = trans(
                    client_node,
                    pool.put_port,
                    Message(command=stdops.STD_TOUCH, capability=cap),
                    rng=RandomSource(100 + i),
                    timeout=4.0,
                    expect_signature=pool.signature.public,
                    dst_machine=addr,
                )
                assert old.status == InvalidCapability.code
                good = trans(
                    client_node,
                    pool.put_port,
                    Message(command=stdops.STD_TOUCH, capability=fresh),
                    rng=RandomSource(200 + i),
                    timeout=4.0,
                    expect_signature=pool.signature.public,
                    dst_machine=addr,
                )
                assert good.status == 0

            pool.kill(0)
            assert not pool.health(0, timeout=0.5)
            for _ in range(6):
                client.touch(fresh)  # failover keeps the service up
            cached = locator.cache.get(pool.put_port)
            assert pool.members[0] not in cached
            assert len(cached) == 2
        finally:
            client_node.close()
            pool.stop()


@pytest.mark.integration
class TestForkedPoolCreate:
    def test_create_points_to_objects(self):
        """A forked pool has no member in this process to create on: it
        takes its rows at the fork, from ``objects=``."""
        pool = ReplicatedObjectServer(replicas=1)
        try:
            with pytest.raises(AmoebaError, match="objects="):
                pool.create(b"row")
        finally:
            pool.stop()


class _ThirdChildFails(ReplicaObjectServer):
    """Raises in whichever forked child is *last* of three to build its
    server: the parent tears every child down the moment it hears EOF
    from the failing one, so only a failure in the last builder leaves
    the count below a fact rather than a race."""

    built = None  # a multiprocessing.Value, shared across the forks

    def __init__(self, *args, **kwargs):
        with self.built.get_lock():
            self.built.value += 1
            if self.built.value == 3:
                raise RuntimeError("this replica cannot start")
        super().__init__(*args, **kwargs)


@pytest.mark.integration
class TestForkedPoolThatCannotStart:
    def test_constructor_raises_in_bounded_time_and_leaves_no_child(self):
        """Regression: the handshake was an ``assert`` (gone under
        ``-O``), a short pool was returned silently after 5 s, and a
        failure leaked the children and the arbiter's socket."""
        import multiprocessing
        import time

        _ThirdChildFails.built = multiprocessing.Value("i", 0)
        began = time.monotonic()
        with pytest.raises(RuntimeError, match=r"replica \d did not send"):
            ReplicatedObjectServer(replicas=3, server_cls=_ThirdChildFails)
        assert time.monotonic() - began < 8.0
        assert _ThirdChildFails.built.value == 3  # two of them did start
        assert multiprocessing.active_children() == []

