"""Tests for the server-side object table (creation, lookup, revocation)."""

import threading
import time

import pytest

from repro.core.ports import Port
from repro.core.registry import ObjectEntry, ObjectTable
from repro.core.rights import ALL_RIGHTS, Rights
from repro.core.schemes import scheme_by_name
from repro.crypto.randomsrc import RandomSource
from repro.errors import InvalidCapability, NoSuchObject, PermissionDenied

PORT = Port(0x0BADC0FFEE00)


@pytest.fixture
def table():
    return ObjectTable(
        scheme_by_name("xor-oneway"), PORT, rng=RandomSource(seed=44)
    )


class TestCreateLookup:
    def test_create_returns_owner_capability(self, table):
        cap = table.create({"payload": 1})
        assert cap.port == PORT
        entry, rights = table.lookup(cap)
        assert entry.data == {"payload": 1}
        assert rights == ALL_RIGHTS

    def test_object_numbers_sequential(self, table):
        caps = [table.create(i) for i in range(5)]
        assert [c.object for c in caps] == [0, 1, 2, 3, 4]
        assert len(table) == 5

    def test_lookup_unknown_object(self, table):
        cap = table.create("x")
        ghost = cap.with_rights(cap.rights)  # copy
        table.destroy(cap)
        with pytest.raises(NoSuchObject):
            table.lookup(ghost)

    def test_lookup_requires_rights(self, table):
        cap = table.create("x")
        weak = table.restrict(cap, Rights(0x01))
        table.lookup(weak, required=Rights(0x01))  # fine
        with pytest.raises(PermissionDenied):
            table.lookup(weak, required=Rights(0x02))

    def test_lookup_rejects_tampering(self, table):
        cap = table.create("x")
        with pytest.raises(InvalidCapability):
            table.lookup(cap.with_rights(0x0F))

    def test_data_shorthand(self, table):
        cap = table.create("hello")
        assert table.data(cap) == "hello"

    def test_touch_counting(self, table):
        cap = table.create("x")
        entry, _ = table.lookup(cap)
        before = entry.touches
        table.lookup(cap)
        assert entry.touches == before + 1


class TestRestrict:
    def test_restricted_capability_works(self, table):
        cap = table.create("x")
        weak = table.restrict(cap, Rights(0b0101))
        _, rights = table.lookup(weak)
        assert rights == Rights(0b0101)

    def test_restrict_of_restrict_shrinks(self, table):
        cap = table.create("x")
        weaker = table.restrict(table.restrict(cap, Rights(0b0111)), Rights(0b0011))
        _, rights = table.lookup(weaker)
        assert rights == Rights(0b0011)

    def test_restrict_unknown_object(self, table):
        cap = table.create("x")
        table.destroy(cap)
        with pytest.raises(NoSuchObject):
            table.restrict(cap, Rights(1))


class TestRevocation:
    """§2.3: changing the stored random number instantly invalidates every
    outstanding capability."""

    def test_refresh_kills_all_outstanding(self, table):
        owner = table.create("precious")
        shared_a = table.restrict(owner, Rights(0x01))
        shared_b = table.restrict(owner, Rights(0x03))
        fresh = table.refresh(owner)
        for dead in (owner, shared_a, shared_b):
            with pytest.raises(InvalidCapability):
                table.lookup(dead)
        entry, rights = table.lookup(fresh)
        assert entry.data == "precious"
        assert rights == ALL_RIGHTS

    def test_refresh_requires_rights(self, table):
        owner = table.create("x")
        weak = table.restrict(owner, Rights(0x01))
        with pytest.raises(PermissionDenied):
            table.refresh(weak)  # default requires ALL rights

    def test_refresh_bumps_generation(self, table):
        owner = table.create("x")
        entry, _ = table.lookup(owner)
        assert entry.generation == 0
        fresh = table.refresh(owner)
        assert entry.generation == 1
        table.refresh(fresh)
        assert entry.generation == 2

    def test_data_survives_refresh(self, table):
        owner = table.create([1, 2, 3])
        fresh = table.refresh(owner)
        assert table.data(fresh) == [1, 2, 3]


class TestDestroy:
    def test_destroy_removes(self, table):
        cap = table.create("x")
        assert table.destroy(cap) == "x"
        assert len(table) == 0

    def test_numbers_recycled(self, table):
        cap = table.create("a")
        table.destroy(cap)
        again = table.create("b")
        assert again.object == cap.object

    def test_stale_capability_after_recycle_rejected(self, table):
        # The recycled object gets a fresh random number, so the old
        # capability for the same object number must not validate.
        cap = table.create("old")
        table.destroy(cap)
        table.create("new")
        with pytest.raises(InvalidCapability):
            table.lookup(cap)

    def test_restored_row_takes_its_number_off_the_free_list(self, table):
        """A replica applied a peer's destroy, then had the recycled
        number mirrored back (``restore_entry``): a later local create
        must not pop that number and overwrite the live row."""
        doomed = table.create("doomed")
        table.destroy(doomed)
        secret = table.scheme.new_secret(RandomSource(seed=5))
        table.restore_entry(ObjectEntry(
            number=doomed.object, secret=secret, data="mirrored",
            generation=1,
        ))
        fresh = table.create("local")
        assert fresh.object != doomed.object
        assert table.data(table.mint_for(doomed.object)) == "mirrored"
        assert table.data(fresh) == "local"
        assert len(table) == 2

    def test_destroy_requires_rights(self, table):
        cap = table.create("x")
        weak = table.restrict(cap, Rights(0x01))
        with pytest.raises(PermissionDenied):
            table.destroy(weak)


class TestMintFor:
    def test_mint_for_existing(self, table):
        cap = table.create("x")
        reminted = table.mint_for(cap.object, Rights(0x03))
        _, rights = table.lookup(reminted)
        assert rights == Rights(0x03)

    def test_mint_for_missing(self, table):
        with pytest.raises(NoSuchObject):
            table.mint_for(123)


class TestCapacityAndConcurrency:
    def test_table_capacity(self):
        table = ObjectTable(
            scheme_by_name("xor-oneway"),
            PORT,
            rng=RandomSource(seed=1),
            max_objects=2,
        )
        table.create(1)
        table.create(2)
        with pytest.raises(NoSuchObject):
            table.create(3)

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            ObjectTable(scheme_by_name("simple"), PORT, max_objects=0)

    def test_concurrent_creates_unique_numbers(self, table):
        numbers = []
        errors = []

        def worker():
            try:
                for _ in range(50):
                    numbers.append(table.create("x").object)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(set(numbers)) == 200

    def test_concurrent_lookups_lose_no_touches(self, table):
        """Regression: lookup() used to bump ``touches`` *after* releasing
        the table lock, so concurrent lookups lost read-modify-write
        updates.  With the bookkeeping back under the lock the count is
        exact."""
        cap = table.create("hot")
        per_thread = 500
        n_threads = 4
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker():
            try:
                barrier.wait()
                for _ in range(per_thread):
                    table.lookup(cap)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        entry, _ = table.lookup(cap)
        assert entry.touches == per_thread * n_threads + 1

    def test_lookup_straddling_destroy_does_not_resurrect(self):
        """Regression: a lookup whose verify straddles a concurrent
        destroy must not touch the removed entry back to life (or crash);
        it reports NoSuchObject like any later lookup would."""
        scheme = scheme_by_name("xor-oneway")
        gate = threading.Event()
        entered = threading.Event()

        class GatedScheme(type(scheme)):
            def verify(self, secret, rights, check):
                entered.set()
                gate.wait(timeout=5.0)
                return super().verify(secret, rights, check)

        table = ObjectTable(GatedScheme(), PORT, rng=RandomSource(seed=45))
        cap = table.create("doomed")
        results = []

        def reader():
            try:
                results.append(table.lookup(cap))
            except NoSuchObject:
                results.append("gone")

        thread = threading.Thread(target=reader)
        thread.start()
        assert entered.wait(timeout=5.0)
        # destroy() validates the capability itself, so it must not block
        # on the reader's gate: open it for everyone, then destroy.
        gate.set()
        table.destroy(cap)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        # Whatever the reader observed (a validated entry just before the
        # destroy, or NoSuchObject just after), the object stays dead.
        assert cap.object not in table
        with pytest.raises(NoSuchObject):
            table.lookup(cap)

    def test_lookup_straddling_refresh_revalidates(self):
        """A lookup that validated against a secret which died mid-flight
        (a racing refresh) must re-validate and reject the now-revoked
        capability, never bless it with the stale verdict."""
        scheme = scheme_by_name("xor-oneway")
        gate = threading.Event()
        entered = threading.Event()
        first_verify = threading.Event()

        class GatedScheme(type(scheme)):
            def verify(self, secret, rights, check):
                if not first_verify.is_set():
                    first_verify.set()
                    entered.set()
                    gate.wait(timeout=5.0)
                return super().verify(secret, rights, check)

        table = ObjectTable(GatedScheme(), PORT, rng=RandomSource(seed=46))
        cap = table.create("refreshed")
        outcome = []

        def reader():
            try:
                outcome.append(table.lookup(cap)[0])
            except InvalidCapability:
                outcome.append("revoked")

        thread = threading.Thread(target=reader)
        thread.start()
        assert entered.wait(timeout=5.0)
        table.refresh(cap)  # second verify call: gate already recorded
        gate.set()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert outcome == ["revoked"]


class TestSchemeIntegration:
    @pytest.mark.parametrize("name", ["simple", "encrypted", "xor-oneway", "commutative"])
    def test_full_lifecycle_per_scheme(self, name):
        table = ObjectTable(
            scheme_by_name(name), PORT, rng=RandomSource(seed=7)
        )
        cap = table.create("obj")
        entry, rights = table.lookup(cap)
        assert entry.data == "obj"
        fresh = table.refresh(cap)
        with pytest.raises(InvalidCapability):
            table.lookup(cap)
        assert table.destroy(fresh) == "obj"


class TestSharding:
    """(Class and ids kept from the lock-striped table.)  Allocation and
    the revocation hook on the one-lock table."""

    def test_shard_topology(self, table):
        # (Id kept.)  The whole topology now: one number space, handed
        # out sequentially from 0, one free list.
        caps = [table.create(i) for i in range(64)]
        assert [c.object for c in caps] == list(range(64))
        assert table.numbers() == list(range(64))
        assert table.high_water == 64

    def test_shard_sizes_and_len_agree(self, table):
        # (Id kept.)
        for i in range(10):
            table.create(i)
        assert len(table.numbers()) == len(table) == 10

    def test_recycled_number_preferred_over_fresh(self, table):
        caps = [table.create(i) for i in range(5)]
        table.destroy(caps[2])
        again = table.create("recycled")
        assert again.object == caps[2].object

    def test_revocation_callback_carries_shard_index(self, table):
        seen = []
        # (Id kept.)  The hook names the object and nothing else.
        table.on_revocation(
            lambda port, number, generation: seen.append(
                (port, number, generation)
            )
        )
        cap = table.create("x")
        table.refresh(cap)
        assert seen == [(PORT, cap.object, 1)]

    def test_age_expiry_carries_shard_index(self):
        table = ObjectTable(
            scheme_by_name("xor-oneway"),
            PORT,
            rng=RandomSource(seed=51),
            default_lifetime=1,
        )
        seen = []
        # (Id kept.)  One callback per expired object.
        table.on_revocation(
            lambda port, number, generation: seen.append(
                (port, number, generation)
            )
        )
        caps = [table.create(i) for i in range(20)]
        table.age()
        assert sorted(seen) == sorted((PORT, c.object, 0) for c in caps)


class TestVerifiedMemo:
    """The per-entry verified-check memo: §2.4's server-side capability
    cache.  Repeat validations skip the one-way function; the memo can
    never outlive the secret it was proven against."""

    def test_restricted_rights_stable_across_repeat_lookups(self, table):
        cap = table.create("x")
        weak = table.restrict(cap, Rights(0b0101))
        for _ in range(3):
            _, rights = table.lookup(weak)
            assert rights == Rights(0b0101)
        _, owner_rights = table.lookup(cap)
        assert owner_rights == ALL_RIGHTS

    def test_tampered_capability_rejected_despite_warm_memo(self, table):
        cap = table.create("x")
        table.lookup(cap)  # memoized
        with pytest.raises(InvalidCapability):
            table.lookup(cap.with_rights(0x0F))

    def test_memo_cleared_on_refresh(self, table):
        cap = table.create("x")
        for _ in range(5):
            table.lookup(cap)  # hot in the memo
        table.refresh(cap)
        with pytest.raises(InvalidCapability):
            table.lookup(cap)  # must NOT be served from the stale memo

    def test_memo_does_not_survive_destroy_and_recreate(self, table):
        cap = table.create("old")
        table.lookup(cap)
        table.destroy(cap)
        recreated = table.create("new")
        assert recreated.object == cap.object
        with pytest.raises(InvalidCapability):
            table.lookup(cap)

    def test_memo_bounded(self, table):
        from repro.core.registry import VERIFIED_MEMO_MAX

        cap = table.create("x")
        masks = [Rights(1 << (i % 8)) for i in range(VERIFIED_MEMO_MAX + 8)]
        restricted = [table.restrict(cap, m) for m in masks]
        for weak in restricted:
            table.lookup(weak)
        entry, _ = table.lookup(cap)
        assert len(entry.verified) <= VERIFIED_MEMO_MAX
        # Evicted pairs simply re-verify; all capabilities still work.
        for weak, m in zip(restricted, masks):
            _, rights = table.lookup(weak)
            assert rights == m

    def test_memo_hit_still_enforces_required_rights(self, table):
        cap = table.create("x")
        weak = table.restrict(cap, Rights(0x01))
        table.lookup(weak)  # memoized with rights 0x01
        table.lookup(weak, required=Rights(0x01))
        with pytest.raises(PermissionDenied):
            table.lookup(weak, required=Rights(0x02))

    def test_memo_hit_counts_as_touch(self):
        table = ObjectTable(
            scheme_by_name("xor-oneway"),
            PORT,
            rng=RandomSource(seed=52),
            default_lifetime=2,
        )
        cap = table.create("busy")
        table.lookup(cap)  # slow path: memoize
        for _ in range(6):
            table.age()
            table.lookup(cap)  # memo hits must also prove liveness
        assert len(table) == 1


class TestShardedAging:
    """(Class id kept.)  age() is one hold of the table lock, so a sweep
    can never expire an entry out from under a concurrent refresh."""

    def test_refresh_cannot_interleave_inside_a_sweep(self):
        """A refresh is in flight — validated, holding the lock, drawing
        its new secret — when a sweep starts.  The sweep must wait for
        it and then see the lifetime the refresh reset; and a refresh
        that arrives *while* the sweep holds the lock must find its
        entry either untouched or gone, never decremented-but-alive."""
        scheme = scheme_by_name("xor-oneway")
        armed = threading.Event()
        entered = threading.Event()
        gate = threading.Event()

        class GatedScheme(type(scheme)):
            def new_secret(self, rng):
                if armed.is_set():
                    armed.clear()  # gate one draw only
                    entered.set()
                    gate.wait(timeout=10.0)
                return super().new_secret(rng)

        table = ObjectTable(
            GatedScheme(),
            PORT,
            rng=RandomSource(seed=53),
            default_lifetime=2,
        )
        caps = [table.create(i) for i in range(16)]
        table.age()  # every lifetime now 1
        armed.set()
        refreshed = []
        refresher = threading.Thread(
            target=lambda: refreshed.append(table.refresh(caps[15]))
        )
        refresher.start()
        assert entered.wait(timeout=10.0)  # the refresh holds the lock
        expired_box = []
        ager = threading.Thread(target=lambda: expired_box.append(table.age()))
        ager.start()
        # One lock: the sweep has not decremented anything while the
        # refresh is inside its hold.
        time.sleep(0.05)
        assert ager.is_alive() and len(table) == 16
        assert all(table._entry(n).lifetime == 1 for n in range(15))
        # A second refresh, queued behind the sweep.
        late = []

        def late_refresh():
            try:
                late.append(table.refresh(caps[3]))
            except NoSuchObject as exc:
                late.append(exc)

        late_refresher = threading.Thread(target=late_refresh)
        late_refresher.start()
        gate.set()
        for thread in (refresher, ager, late_refresher):
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        # The refreshed object survived the sweep: its refresh (a use)
        # reset the lifetime the sweep then decremented to 1, not 0.
        assert table._entry(15).lifetime == 1
        assert table.lookup(refreshed[0])[0].generation == 1
        # The late refresh ran wholly before or wholly after the sweep.
        if isinstance(late[0], NoSuchObject):
            expected = set(range(15))
        else:
            expected = set(range(15)) - {3}
            assert table.lookup(late[0])[0].generation == 1
        assert {e.number for e in expired_box[0]} == expected
        assert set(table.numbers()) == set(range(16)) - expected

    def test_concurrent_sweeps_and_touches_never_misfire(self):
        table = ObjectTable(
            scheme_by_name("xor-oneway"),
            PORT,
            rng=RandomSource(seed=54),
            default_lifetime=150,
        )
        survivor = table.create("outlives-100-sweeps")
        doomed = ObjectTable(
            scheme_by_name("xor-oneway"),
            PORT,
            rng=RandomSource(seed=55),
            default_lifetime=50,
        )
        doomed_cap = doomed.create("dies-within-100-sweeps")
        hot = table.create("touched-throughout")
        errors = []
        stop = threading.Event()

        def toucher():
            try:
                while not stop.is_set():
                    table.lookup(hot)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def ager(target, sweeps):
            try:
                for _ in range(sweeps):
                    target.age()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        touch_threads = [threading.Thread(target=toucher) for _ in range(2)]
        age_threads = [
            threading.Thread(target=ager, args=(table, 25)) for _ in range(4)
        ] + [threading.Thread(target=ager, args=(doomed, 25)) for _ in range(4)]
        for t in touch_threads + age_threads:
            t.start()
        for t in age_threads:
            t.join(timeout=30.0)
        stop.set()
        for t in touch_threads:
            t.join(timeout=30.0)
        assert not errors
        # 100 sweeps < lifetime 150: the untouched survivor must still be
        # there (a double-decrementing stale-snapshot bug kills it early);
        # 100 sweeps > lifetime 50: the doomed object must be gone.
        assert survivor.object in table
        assert hot.object in table
        assert doomed_cap.object not in doomed


class TestConcurrentShardedOps:
    def test_eight_thread_mixed_storm(self):
        """8 threads × disjoint objects: create/lookup/refresh/destroy
        storms must neither error nor cross wires."""
        table = ObjectTable(
            scheme_by_name("xor-oneway"), PORT, rng=RandomSource(seed=56)
        )
        n_threads = 8
        per_thread = 60
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker(tid):
            try:
                barrier.wait()
                for i in range(per_thread):
                    cap = table.create((tid, i))
                    entry, rights = table.lookup(cap)
                    assert entry.data == (tid, i)
                    assert rights == ALL_RIGHTS
                    fresh = table.refresh(cap)
                    with pytest.raises(InvalidCapability):
                        table.lookup(cap)
                    if i % 3 == 0:
                        assert table.destroy(fresh) == (tid, i)
                    else:
                        assert table.data(fresh) == (tid, i)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not errors
        assert not any(t.is_alive() for t in threads)
        # Every surviving object is one a worker chose to keep.
        survivors = n_threads * sum(
            1 for i in range(per_thread) if i % 3 != 0
        )
        assert len(table) == survivors


class TestRevocationFanOutSharded:
    def test_eight_thread_refresh_destroy_age_purge_sealer_caches(self):
        """The full wiring under concurrency: refresh/destroy/age on
        an object fires the fan-out which purges the sealer's §2.4 caches
        for that object only — from 8 threads at once, with a control
        object proving nothing else is swept."""
        from repro.softprot.cache import (
            ClientCapabilityCache,
            ServerCapabilityCache,
        )
        from repro.softprot.matrix import CapabilitySealer, KeyMatrix

        matrix = KeyMatrix(rng=RandomSource(seed=57))
        client = CapabilitySealer(
            matrix.view(1),
            client_cache=ClientCapabilityCache(max_entries=1024),
        )
        server = CapabilitySealer(
            matrix.view(2),
            server_cache=ServerCapabilityCache(max_entries=1024),
        )
        table = ObjectTable(
            scheme_by_name("xor-oneway"), PORT, rng=RandomSource(seed=58)
        )
        # Mirror the full wiring: the server purges its own caches via the
        # table hook; the client purges on learning of the revocation.
        table.on_revocation(
            lambda port, number, _gen: (
                server.invalidate_object(port, number),
                client.invalidate_object(port, number),
            )
        )
        control = table.create("control")
        control_sealed = client.seal(control, dst=2)
        assert server.unseal(control_sealed, src=1) == control

        n_threads = 8
        rounds = 40
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker(tid):
            try:
                barrier.wait()
                for r in range(rounds):
                    cap = table.create((tid, r))
                    sealed = client.seal(cap, dst=2)
                    assert server.unseal(sealed, src=1) == cap
                    assert server.server_cache.lookup(sealed, 1) == cap
                    if r % 2:
                        table.refresh(cap)
                    else:
                        table.destroy(cap)
                    # The fan-out purged exactly this object's triples.
                    assert server.server_cache.lookup(sealed, 1) is None
                    assert client.client_cache.lookup(cap, 2) is None
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not errors
        assert not any(t.is_alive() for t in threads)
        # Revocations elsewhere never touched the control object's triples.
        assert server.server_cache.lookup(control_sealed, 1) == control
        assert client.client_cache.lookup(control, 2) == control_sealed

    def test_age_expiry_purges_caches_per_object(self):
        from repro.softprot.cache import (
            ClientCapabilityCache,
            ServerCapabilityCache,
        )
        from repro.softprot.matrix import CapabilitySealer, KeyMatrix

        matrix = KeyMatrix(rng=RandomSource(seed=59))
        client = CapabilitySealer(
            matrix.view(1), client_cache=ClientCapabilityCache()
        )
        sealer = CapabilitySealer(
            matrix.view(2), server_cache=ServerCapabilityCache()
        )
        table = ObjectTable(
            scheme_by_name("xor-oneway"),
            PORT,
            rng=RandomSource(seed=60),
            default_lifetime=2,
        )
        table.on_revocation(
            lambda port, number, _gen: sealer.invalidate_object(
                port, number
            )
        )
        caps = [table.create(i) for i in range(10)]
        sealed = [client.seal(cap, dst=2) for cap in caps]
        for blob, cap in zip(sealed, caps):
            assert sealer.unseal(blob, src=1) == cap
        table.age()  # every lifetime now 1
        table.lookup(caps[0])  # touched: resets to 2, survives the sweep
        table.age()
        assert sealer.server_cache.lookup(sealed[0], 1) == caps[0]
        for blob in sealed[1:]:
            assert sealer.server_cache.lookup(blob, 1) is None
