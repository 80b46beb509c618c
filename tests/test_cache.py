"""Tests for the LRU capability caches of §2.4."""

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.capability import Capability
from repro.core.ports import Port
from repro.core.rights import Rights
from repro.softprot.cache import (
    ClientCapabilityCache,
    ServerCapabilityCache,
)


def cap(n):
    return Capability(
        port=Port(1), object=n, rights=Rights(0xFF), check=bytes([n]) * 6
    )


class TestLruCache:
    """The bounded LRU map under both triple caches."""

    def test_get_put(self):
        cache = ClientCapabilityCache(max_entries=4)
        cache.remember(cap(1), 7, b"a")
        assert cache.lookup(cap(1), 7) == b"a"
        assert cache.lookup(cap(2), 7) is None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_eviction_order(self):
        cache = ClientCapabilityCache(max_entries=2)
        for n in (1, 2, 3):  # 3 evicts 1
            cache.remember(cap(n), 7, bytes([n]))
        assert cache.lookup(cap(1), 7) is None
        assert cache.lookup(cap(2), 7) == b"\x02"

    def test_get_refreshes_recency(self):
        cache = ClientCapabilityCache(max_entries=2)
        cache.remember(cap(1), 7, b"a")
        cache.remember(cap(2), 7, b"b")
        cache.lookup(cap(1), 7)  # 2 is now least recent
        cache.remember(cap(3), 7, b"c")
        assert cache.lookup(cap(1), 7) == b"a"
        assert cache.lookup(cap(2), 7) is None

    def test_overwrite(self):
        cache = ClientCapabilityCache()
        cache.remember(cap(1), 7, b"a")
        cache.remember(cap(1), 7, b"b")
        assert cache.lookup(cap(1), 7) == b"b"
        assert len(cache._entries) == 1

    def test_min_size(self):
        import pytest

        with pytest.raises(ValueError):
            ServerCapabilityCache(max_entries=0)


class TestCapabilityCaches:
    def test_client_triples(self):
        # (unencrypted capability, destination) -> encrypted capability
        cache = ClientCapabilityCache()
        cache.remember(cap(1), 7, b"sealed-bytes")
        assert cache.lookup(cap(1), 7) == b"sealed-bytes"
        assert cache.lookup(cap(1), 8) is None
        assert cache.lookup(cap(2), 7) is None

    def test_server_triples(self):
        # (encrypted capability, source) -> unencrypted capability
        cache = ServerCapabilityCache()
        cache.remember(b"sealed", 3, cap(1))
        assert cache.lookup(b"sealed", 3) == cap(1)
        assert cache.lookup(b"sealed", 4) is None

    def test_same_capability_different_destinations(self):
        cache = ClientCapabilityCache()
        cache.remember(cap(1), 7, b"for-7")
        cache.remember(cap(1), 8, b"for-8")
        assert cache.lookup(cap(1), 7) == b"for-7"
        assert cache.lookup(cap(1), 8) == b"for-8"


class TestConcurrency:
    def test_evictions_race_request_path_safely(self):
        """Regression: revocation (forget_object) fires from the table's
        calling thread while the request path keeps hitting get/put on
        the same cache — the OrderedDict must be locked, or eviction
        relinks a dict another thread is resizing."""
        import threading

        cache = ServerCapabilityCache(max_entries=256)
        stop = threading.Event()
        errors = []

        def requester():
            i = 0
            try:
                while not stop.is_set():
                    i = (i + 1) % 200
                    cache.remember(b"sealed-%d" % i, 3, cap(i % 250))
                    cache.lookup(b"sealed-%d" % i, 3)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def revoker():
            try:
                for n in range(2000):
                    cache.forget_object(Port(1), n % 250)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        req = threading.Thread(target=requester)
        rev = threading.Thread(target=revoker)
        req.start()
        rev.start()
        rev.join(timeout=30.0)
        stop.set()
        req.join(timeout=30.0)
        assert not errors
        assert not rev.is_alive() and not req.is_alive()


def index_mirrors_map(cache):
    """The per-object index is exact: the same keys as the map, each
    filed under its own capability's (port, object), no empty set."""
    filed = set().union(*cache._keys_of.values())
    assert filed == set(cache._entries)
    for owner, keys in cache._keys_of.items():
        assert keys
        for key in keys:
            value = cache._entries[key]
            capability = key[0] if cache._capability_in_key else value
            assert (capability.port, capability.object) == owner


class TestShardedServerCache:
    def test_forget_object_uses_stripe_hints(self):
        # (Id kept from the striped cache.)  Object 5's triples have
        # unrelated ciphertext keys; the index finds every one.
        cache = ServerCapabilityCache(max_entries=256)
        for src in range(12):
            cache.remember(b"sealed-5-%d" % src, src, cap(5))
        for src in range(12):
            cache.remember(b"sealed-9-%d" % src, src, cap(9))
        assert cache.forget_object(Port(1), 5) == 12
        assert all(
            cache.lookup(b"sealed-5-%d" % src, src) is None for src in range(12)
        )
        assert all(
            cache.lookup(b"sealed-9-%d" % src, src) == cap(9)
            for src in range(12)
        )
        # The index entry was consumed: a second forget finds nothing.
        assert cache.forget_object(Port(1), 5) == 0
        index_mirrors_map(cache)

    def test_forget_object_without_hints_still_correct(self):
        # (Id kept.)  LRU displacement leaves an exact index: the eight
        # displaced objects are gone from it, not left as stale entries.
        cache = ServerCapabilityCache(max_entries=1)
        for n in range(8):
            cache.remember(b"sealed-%d" % n, 0, cap(n))
        cache.remember(b"sealed-last", 0, cap(42))
        assert cache._keys_of == {(Port(1), 42): {(b"sealed-last", 0)}}
        assert cache.forget_object(Port(1), 7) == 0  # displaced earlier
        assert cache.forget_object(Port(1), 42) == 1
        assert cache.lookup(b"sealed-last", 0) is None
        assert not cache._keys_of and not cache._entries

    def test_overwrite_refiles_under_the_new_object(self):
        # One sealed blob re-learned as a different object's capability:
        # the old object's index entry must not keep pointing at it.
        cache = ServerCapabilityCache(max_entries=4)
        cache.remember(b"blob", 0, cap(1))
        cache.remember(b"blob", 0, cap(2))
        index_mirrors_map(cache)
        assert cache.forget_object(Port(1), 1) == 0
        assert cache.lookup(b"blob", 0) == cap(2)
        assert cache.forget_object(Port(1), 2) == 1


class TestShardedConcurrency:
    def test_eight_thread_revocation_fanout_purges_only_the_target(self):
        """8 threads, each owning disjoint objects, race remember/forget
        on both §2.4 caches: a revocation must purge exactly its object's
        triples and never disturb a neighbour's."""
        import threading

        client_cache = ClientCapabilityCache(max_entries=1024)
        server_cache = ServerCapabilityCache(max_entries=1024)
        n_threads = 8
        rounds = 150
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker(tid):
            try:
                barrier.wait()
                for r in range(rounds):
                    number = tid + n_threads * (r % 4)
                    capability = cap(number)
                    sealed = b"sealed-%d-%d" % (tid, r)
                    client_cache.remember(capability, tid, sealed)
                    server_cache.remember(sealed, tid, capability)
                    assert client_cache.lookup(capability, tid) == sealed
                    assert server_cache.lookup(sealed, tid) == capability
                    # Revoke: this object's triples die, in both caches.
                    client_cache.forget_object(Port(1), number)
                    server_cache.forget_object(Port(1), number)
                    assert client_cache.lookup(capability, tid) is None
                    assert server_cache.lookup(sealed, tid) is None
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
        index_mirrors_map(client_cache)
        index_mirrors_map(server_cache)


class TestServerCacheClear:
    def test_clear_resets_hints_and_undegrades(self):
        """(Id kept from ``clear()``, which nothing called.)  Emptying
        the cache by revocation must empty the index with the map — a
        stale index entry would leak and name keys no longer cached."""
        cache = ServerCapabilityCache(max_entries=4)
        for n in range(8):
            cache.remember(b"sealed-%d" % n, 0, cap(n))
        for n in range(8):
            cache.forget_object(Port(1), n)
        assert not cache._entries
        assert not cache._keys_of
        cache.remember(b"fresh", 0, cap(3))
        assert cache.forget_object(Port(1), 3) == 1
        assert cache.forget_object(Port(1), 3) == 0  # index entry consumed


class CapabilityCacheMachine(RuleBasedStateMachine):
    """remember / lookup / forget_object on a tiny cache against
    a naive model: an insertion-ordered dict trimmed from the old end,
    with forget_object as the O(entries) sweep the index replaces."""

    cache_cls = None  # set by the two subclasses below

    def __init__(self):
        super().__init__()
        self.cache = self.cache_cls(max_entries=3)
        self.model = {}  # key -> (value, capability), oldest first

    def _triple(self, number, machine, blob):
        capability = cap(number)
        sealed = b"sealed-%d" % blob
        if self.cache_cls is ClientCapabilityCache:
            return (capability, machine), sealed, capability
        return (sealed, machine), capability, capability

    @rule(number=st.integers(0, 3), machine=st.integers(0, 2),
          blob=st.integers(0, 3))
    def remember(self, number, machine, blob):
        key, value, capability = self._triple(number, machine, blob)
        self.cache.remember(key[0], key[1], value)
        self.model.pop(key, None)
        self.model[key] = (value, capability)
        while len(self.model) > 3:
            del self.model[next(iter(self.model))]

    @rule(number=st.integers(0, 3), machine=st.integers(0, 2),
          blob=st.integers(0, 3))
    def lookup(self, number, machine, blob):
        key, _, _ = self._triple(number, machine, blob)
        expected = self.model.get(key)
        assert self.cache.lookup(*key) == (expected and expected[0])
        if expected is not None:
            self.model[key] = self.model.pop(key)  # now most recent

    @rule(number=st.integers(0, 3))
    def forget_object(self, number):
        doomed = [key for key, (_, capability) in self.model.items()
                  if capability.object == number]
        for key in doomed:
            del self.model[key]
        assert self.cache.forget_object(Port(1), number) == len(doomed)

    @invariant()
    def index_and_map_agree_with_the_model(self):
        index_mirrors_map(self.cache)
        assert len(self.cache._entries) <= self.cache.max_entries
        assert list(self.cache._entries.items()) == [
            (key, value) for key, (value, _) in self.model.items()
        ]


class ClientCacheMachine(CapabilityCacheMachine):
    cache_cls = ClientCapabilityCache


class ServerCacheMachine(CapabilityCacheMachine):
    cache_cls = ServerCapabilityCache


TestClientCacheAgainstModel = ClientCacheMachine.TestCase
TestServerCacheAgainstModel = ServerCacheMachine.TestCase
