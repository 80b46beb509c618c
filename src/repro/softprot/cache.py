"""Hashed capability caches (§2.4).

"To avoid having to run the encryption/decryption algorithm frequently,
all machines can maintain a hashed cache of capabilities that they have
been using frequently.  Clients will hash their caches on the unencrypted
capabilities in the form of triples: (unencrypted capability, destination,
encrypted capability), whereas servers will hash theirs in the form of
triples: (encrypted capability, source, unencrypted capability)."

Both caches below are those triples, stored in bounded LRU maps with
hit/miss counters (the ``claim_matrix_replay_and_cache`` row of
``benchmarks/bench_claims.py`` runs them).  Each is one map under one
lock: the critical sections are a few dict operations guarding block-
cipher calls that cost an order of magnitude more, and lock stripes
bought nothing under the GIL (docs/PERFORMANCE.md "Removed (PR 19)").
"""

import threading
from collections import OrderedDict


class LruCache:
    """A bounded least-recently-used map with hit/miss accounting.

    Thread-safe: a server's request path reads and writes its cache while
    revocation (``ObjectTable.on_revocation``) fires from whichever
    thread refreshed, destroyed, or swept the object — OrderedDict
    relinking is not atomic, so every operation takes the internal lock.
    ``hits`` and ``misses`` move under that lock; :meth:`stats` reads the
    pair under it, so an aggregator never sees a torn (new hits, old
    misses) mix.
    """

    def __init__(self, max_entries=1024):
        if max_entries < 1:
            raise ValueError("cache needs at least one entry")
        self.max_entries = max_entries
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        """Return the cached value or ``None``, updating recency."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key, value):
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def stats(self):
        """One consistent ``(hits, misses)`` snapshot."""
        with self._lock:
            return self.hits, self.misses

    @property
    def hit_rate(self):
        hits, misses = self.stats()
        total = hits + misses
        return hits / total if total else 0.0

    def clear(self):
        with self._lock:
            self._entries.clear()

    def __repr__(self):
        return "%s(%d/%d entries, %.0f%% hits)" % (
            type(self).__name__,
            len(self._entries),
            self.max_entries,
            100 * self.hit_rate,
        )


class _CapabilityCache(LruCache):
    """An LRU of §2.4 triples that can forget one object's without a sweep.

    Beside the map it keeps, under the same lock, an *exact* index
    ``(port, object) -> {keys}`` of the triples whose unencrypted
    capability names that object: a triple displaced by the LRU bound,
    overwritten or cleared leaves the index in the hold that takes it
    out of the map.  :meth:`forget_object` — the revocation path — is
    therefore one dict pop plus the object's own triples, and can never
    miss a triple a racing :meth:`put` is inserting.  The index costs
    the miss path a set insert, right behind a block-cipher call that
    dwarfs it.
    """

    #: Where the unencrypted capability sits in a triple: heading the key
    #: (client) or as the value (server).  Set by the two subclasses.
    _capability_in_key = None

    def __init__(self, max_entries=1024):
        super().__init__(max_entries)
        self._keys_of = {}
        #: Revocation observability: sweeps requested / triples dropped.
        #: The replica fan-out tests read these to prove every replica's
        #: cache actually processed the revocation, not just the one the
        #: client happened to talk to.
        self.forget_calls = 0
        self.forgotten = 0

    def _unfile(self, key, value):
        """Take a triple that just left the map out of the index."""
        capability = key[0] if self._capability_in_key else value
        owner = (capability.port, capability.object)
        keys = self._keys_of[owner]
        keys.discard(key)
        if not keys:
            del self._keys_of[owner]

    def put(self, key, value):
        capability = key[0] if self._capability_in_key else value
        owner = (capability.port, capability.object)
        with self._lock:
            entries = self._entries
            before = len(entries)
            old = entries.setdefault(key, value)
            if len(entries) == before:
                # An overwrite (rare: the miss path inserts) may name a
                # different object — a sealed blob re-learned — so the
                # old triple is unfiled like any other that leaves.
                entries[key] = value
                entries.move_to_end(key)
                self._unfile(key, old)
            self._keys_of.setdefault(owner, set()).add(key)
            while len(entries) > self.max_entries:
                self._unfile(*entries.popitem(last=False))

    def clear(self):
        with self._lock:
            self._entries.clear()
            self._keys_of.clear()

    def forget_object(self, port, number):
        """Drop every triple whose unencrypted capability names one
        (port, object): the secret it was minted under died (refresh,
        destroy, aging), so a client's sealed forms are for dead secrets
        and a server's replayed sealed blob must go back through real
        decryption and table validation.  Returns the count."""
        with self._lock:
            keys = self._keys_of.pop((port, number), ())
            for key in keys:
                del self._entries[key]
            self.forget_calls += 1
            self.forgotten += len(keys)
            return len(keys)


class ClientCapabilityCache(_CapabilityCache):
    """Client triples: (unencrypted capability, destination) -> sealed bytes."""

    _capability_in_key = True

    def lookup(self, capability, destination):
        return self.get((capability, destination))

    def remember(self, capability, destination, sealed):
        self.put((capability, destination), sealed)


class ServerCapabilityCache(_CapabilityCache):
    """Server triples: (sealed bytes, source) -> unencrypted capability.

    A lookup's key is ciphertext — the object it names is only known
    *after* decryption — which is why revocation needs the index at all.
    """

    _capability_in_key = False

    def lookup(self, sealed, source):
        return self.get((sealed, source))

    def remember(self, sealed, source, capability):
        self.put((sealed, source), capability)
