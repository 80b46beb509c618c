"""The server-side object table: secrets, payloads, and revocation.

Every Amoeba server keeps a private table mapping 24-bit object numbers to
(random number, object data).  The table plus a protection scheme is all a
server needs to mint, validate, restrict, and revoke capabilities — no
central capability manager exists anywhere in the system (§2.3).

Revocation works exactly as the paper describes: "ask the server to change
the random number stored in its internal table and return a new
capability"; every outstanding capability for the object dies instantly.

Locking
-------
One re-entrant lock guards the whole table — the ``entries`` dict, the
fresh-number counter and the free list.  Every operation takes it for
dict and counter work only: the one expensive step, the scheme's
one-way-function ``verify``, runs *outside* it (see :meth:`lookup`), and
the revocation listeners fire after it is released.  (The table was
striped 16 ways until PR 21; docs/PERFORMANCE.md "Removed" has the
measurements that retired the stripes.)

Each entry additionally memoizes its verified (rights, check) pairs —
the server-side half of §2.4's "hashed cache of capabilities that they
have been using frequently": a repeat lookup of an already-validated
capability costs one lock acquisition and two dict probes instead of a
one-way-function evaluation.  The memo can never outlive the secret it
was computed from: :meth:`refresh` clears it under the same hold that
replaces the secret, and :meth:`destroy`/:meth:`age` drop the entry
(memo and all) outright.
"""

import threading
from dataclasses import dataclass, field

from repro.core.capability import OBJECT_BITS, Capability
from repro.core.rights import ALL_RIGHTS, NO_RIGHTS, Rights
from repro.crypto.randomsrc import RandomSource
from repro.errors import NoSuchObject, PermissionDenied

#: Bound on each entry's verified-pair memo.  An object realistically
#: circulates as its owner capability plus a handful of restricted
#: forms; the bound only matters against an adversary minting garbage,
#: and garbage never verifies, so it never enters the memo at all.
VERIFIED_MEMO_MAX = 16


@dataclass
class ObjectEntry:
    """One row of a server's object table."""

    number: int
    secret: object
    data: object
    #: Monotonic count of secret refreshes — a revocation generation.
    generation: int = 0
    #: Bookkeeping useful to servers (e.g. touch for garbage collection).
    touches: int = field(default=0)
    #: Sweeps left before the object is garbage (None = never collected).
    #: Every successful lookup (STD_TOUCH included) resets it.
    lifetime: object = None
    #: Verified (rights, check) -> effective Rights memo for the *current*
    #: secret (§2.4 server-side capability cache).  Mutated only under the
    #: table lock; cleared whenever the secret is replaced.
    verified: dict = field(default_factory=dict, repr=False)


class ObjectTable:
    """Thread-safe object table bound to one scheme and port.

    Parameters
    ----------
    scheme:
        The :class:`~repro.core.schemes.ProtectionScheme` protecting this
        server's capabilities.
    port:
        The server's public put-port, stamped into every minted capability.
    rng:
        Randomness source for object secrets (seedable for tests).
    max_objects:
        Capacity bound (the 24-bit space by default).
    """

    def __init__(
        self,
        scheme,
        port,
        rng=None,
        max_objects=1 << OBJECT_BITS,
        default_lifetime=None,
        wal=None,
    ):
        if max_objects < 1 or max_objects > (1 << OBJECT_BITS):
            raise ValueError("max_objects must be in [1, 2**24]")
        if default_lifetime is not None and default_lifetime < 1:
            raise ValueError("default_lifetime must be >= 1 sweeps")
        self.scheme = scheme
        self.port = port
        self._rng = rng or RandomSource()
        self._max_objects = max_objects
        #: Sweeps a fresh/touched object survives; None disables aging.
        #: This is Amoeba's touch-based garbage collection: servers that
        #: keep no record of capability holders cannot refcount, so
        #: objects not touched for N sweeps are presumed garbage.
        self.default_lifetime = default_lifetime
        #: Optional write-ahead log (:class:`~repro.disk.wal.DurableStore`
        #: duck type): every mutation that survives this table's process —
        #: create, refresh, destroy, aging expiry — is appended to it
        #: *under the table lock the mutation already holds*, so log order
        #: is mutation order.
        self._wal = wal
        # RLock: refresh/destroy validate (lookup) and mutate under one
        # acquisition.
        self._lock = threading.RLock()
        self._entries = {}
        #: One past the highest object number ever issued.  Fresh numbers
        #: come from here and it only ever rises — a checkpoint records
        #: it and recovery restores it (:meth:`raise_high_water`), so a
        #: reboot can never hand out, at generation 0, a number some dead
        #: object once carried at a higher one.
        self.high_water = 0
        # (number, next generation): a recycled number resumes *above*
        # its last incarnation's generation, so a revocation still in
        # flight for the old object can never pass the guard on the new.
        # Volatile: the numbers freed before a reboot are not reissued
        # after it (a leak of number space, never a reuse).
        self._free = []
        # Callbacks fired after a secret dies (refresh/destroy/age) with
        # (port, object number, generation) — e.g. a sealer purging its
        # §2.4 capability caches so a revoked capability's sealed form
        # cannot be served from cache.  Fired outside the table lock.
        self._revocation_listeners = []

    def __len__(self):
        return len(self._entries)

    def __contains__(self, number):
        return number in self._entries

    def numbers(self):
        """Snapshot of the allocated object numbers, sorted."""
        with self._lock:
            return sorted(self._entries)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def _allocate(self):
        """Reserve an object number (caller holds the lock); returns
        ``(number, generation)`` — a freed number, one past its previous
        incarnation's generation, ahead of a never-used one at 0."""
        if self._free:
            return self._free.pop()
        number = self.high_water
        if number >= self._max_objects:
            raise NoSuchObject(
                "object table full (%d objects)" % self._max_objects
            )
        self.high_water = number + 1
        return number, 0

    def create(self, data, rights=ALL_RIGHTS):
        """Create an object and mint its first capability.

        The returned capability is the object's *owner* capability; the
        paper's servers always mint with all rights and let callers derive
        weaker ones.
        """
        with self._lock:
            number, generation = self._allocate()
            secret = self.scheme.new_secret(self._rng)
            entry = self._entries[number] = ObjectEntry(
                number, secret, data, generation,
                lifetime=self.default_lifetime,
            )
            if self._wal is not None:
                self._wal.log_create(entry)
        return self._capability(
            number, self.scheme.mint(secret, Rights(rights))
        )

    def _capability(self, number, minted):
        """This table's capability for ``number`` around a scheme's
        ``(rights field, check field)`` pair."""
        rights_field, check = minted
        return Capability(
            port=self.port, object=number, rights=rights_field, check=check
        )

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def _entry(self, number):
        """The live row for ``number`` (no validation — server internals
        like the bank's conservation sum reach for rows they already
        know exist).  One dict probe, no lock: CPython dict reads are
        atomic against the locked writers."""
        try:
            return self._entries[number]
        except KeyError:
            raise NoSuchObject("no object %d on this server" % number) from None

    def lookup(self, capability, required=NO_RIGHTS):
        """Validate a capability and return ``(entry, effective_rights)``.

        Raises :class:`NoSuchObject` for unknown object numbers,
        :class:`InvalidCapability` for tampered fields, and
        :class:`PermissionDenied` when the (validated) rights lack any bit
        of ``required``.  This is the single enforcement point every server
        operation funnels through.

        Locking: a (rights, check) pair already proven against the *live*
        secret hits the entry's verified memo and returns under a single
        acquisition with no crypto at all.  On a miss the scheme's verify
        (the expensive one-way function) deliberately runs *outside* the
        lock, and the liveness bookkeeping runs back *under* it —
        ``touches`` is a read-modify-write and ``lifetime`` races with
        :meth:`age`, so mutating them unlocked lost touches and could
        resurrect an entry a concurrent :meth:`destroy`/sweep had already
        removed.  If the entry changed while verify ran (a racing refresh
        or destroy-and-recreate), the stale verdict is discarded and the
        capability is re-validated against the live secret.
        """
        number = capability.object
        entries = self._entries
        if type(required) is not Rights:
            required = Rights(required)
        memo_key = (capability.rights, capability.check)
        with self._lock:
            entry = entries.get(number)
            if entry is None:
                raise NoSuchObject(
                    "no object %d on this server" % number
                )
            effective = entry.verified.get(memo_key)
            if effective is not None:
                if not effective.has_all(required):
                    raise PermissionDenied(
                        "capability grants %s but operation requires %s"
                        % (bin(int(effective)), bin(int(required)))
                    )
                entry.touches += 1
                entry.lifetime = self.default_lifetime
                return entry, effective
            secret = entry.secret
        while True:
            effective = self.scheme.verify(
                secret, capability.rights, capability.check
            )
            if not effective.has_all(required):
                raise PermissionDenied(
                    "capability grants %s but operation requires %s"
                    % (bin(int(effective)), bin(int(required)))
                )
            with self._lock:
                live = entries.get(number)
                if live is None:
                    raise NoSuchObject(
                        "no object %d on this server" % number
                    )
                if live is entry and live.secret is secret:
                    live.touches += 1
                    live.lifetime = self.default_lifetime  # use proves liveness
                    memo = live.verified
                    if len(memo) >= VERIFIED_MEMO_MAX:
                        # Drop the oldest proven pair; it re-verifies on
                        # its next use.
                        memo.pop(next(iter(memo)))
                    memo[memo_key] = effective
                    return live, effective
                entry, secret = live, live.secret  # raced; re-validate

    def data(self, capability, required=NO_RIGHTS):
        """Shorthand for ``lookup(...)[0].data``."""
        entry, _ = self.lookup(capability, required)
        return entry.data

    def restrict(self, capability, keep_mask):
        """Server-side sub-capability fabrication (schemes 1–3).

        The §2.3 round-trip: "send the capability back to the server along
        with a bit mask and a request to fabricate a new capability with
        fewer rights."
        """
        number = capability.object
        return self._capability(number, self.scheme.restrict(
            self._entry(number).secret,
            capability.rights, capability.check, Rights(keep_mask),
        ))

    # ------------------------------------------------------------------
    # revocation
    # ------------------------------------------------------------------

    def on_revocation(self, callback):
        """Register ``callback(port, number, generation)`` to fire
        after a secret dies — :meth:`refresh` (generation bumped),
        :meth:`destroy` (object gone), or an :meth:`age` expiry.  This is
        the hook that keeps the §2.4 capability caches honest: an
        :class:`ObjectServer` with a sealer wires it to
        :meth:`~repro.softprot.matrix.CapabilitySealer.invalidate_object`,
        so a revoked capability's cached (sealed, source) triple cannot
        outlive the secret it was minted under.  Callbacks run outside
        the table lock."""
        self._revocation_listeners.append(callback)

    def _notify_revocation(self, number, generation):
        for callback in self._revocation_listeners:
            callback(self.port, number, generation)

    def refresh(self, capability, required=ALL_RIGHTS):
        """Revoke every outstanding capability for an object.

        Replaces the stored random number and returns a fresh owner
        capability.  Per the paper this "must be protected with a bit in
        the RIGHTS field"; callers pass the server's chosen mask as
        ``required`` (default: demand the full owner capability).

        The lock is held across validate-and-replace (re-entrantly
        through :meth:`lookup`), and the verified memo is cleared under
        that same hold — no window exists in which the old secret's
        proven pairs could bless a capability of the new generation.
        """
        with self._lock:
            entry, _ = self.lookup(capability, required)
            secret = entry.secret = self.scheme.new_secret(self._rng)
            entry.generation += 1
            entry.verified.clear()
            number, generation = entry.number, entry.generation
            if self._wal is not None:
                self._wal.log_refresh(number, secret, generation)
        self._notify_revocation(number, generation)
        return self._capability(number, self.scheme.mint(secret, ALL_RIGHTS))

    def _remove(self, entry):
        """Drop a row, free its number, log it (caller holds the lock)."""
        del self._entries[entry.number]
        self._free.append((entry.number, entry.generation + 1))
        if self._wal is not None:
            self._wal.log_destroy(entry.number)

    def destroy(self, capability, required=ALL_RIGHTS):
        """Validate and remove an object, recycling its number."""
        with self._lock:
            entry, _ = self.lookup(capability, required)
            self._remove(entry)
        self._notify_revocation(entry.number, entry.generation)
        return entry.data

    def apply_refresh(self, number, secret, generation):
        """Install a revocation decided by a *peer replica*.

        The replica control plane is at-least-once: a fan-out
        CTL_APPLY record may arrive twice (retransmission) or late
        (after a newer local refresh).  The generation guard makes both
        safe — a secret is installed only if it is strictly newer than
        the live row's, so duplicates and stale deliveries are no-ops.
        Returns True when the secret was installed; an absent object is
        also a no-op (a racing destroy won), returning False.

        Like :meth:`refresh`, the verified memo is cleared under the same
        hold that swaps the secret, and the revocation listeners (the
        §2.4 cache purge) fire after the lock is released.
        """
        with self._lock:
            entry = self._entries.get(number)
            if entry is None or generation <= entry.generation:
                return False
            entry.secret = secret
            entry.generation = generation
            entry.verified.clear()
            if self._wal is not None:
                self._wal.log_refresh(number, secret, generation)
        self._notify_revocation(number, generation)
        return True

    def apply_destroy(self, number, generation):
        """Remove an object destroyed by a peer replica (idempotent).

        No capability validation: the peer already validated the owner
        capability before fanning out, and the control message itself is
        signature-authenticated at the server layer.  ``generation`` is
        the row's at the peer when it died: a row *newer* than that is a
        later refresh or — the number having been recycled — another
        object altogether, and is left alone.  A duplicate or a destroy
        for an object this replica never had is a no-op.
        Returns True when a row was removed.
        """
        with self._lock:
            entry = self._entries.get(number)
            if entry is None or entry.generation > generation:
                return False
            self._remove(entry)
        self._notify_revocation(number, entry.generation)
        return True

    def age(self, on_expire=None):
        """One garbage-collection sweep (Amoeba's touch-based GC).

        Decrements every aging object's lifetime; objects that reach zero
        are removed (``on_expire(entry)`` is called first, so a server
        can release disk blocks etc.).  Returns the expired entries.

        Because no record exists of who holds capabilities, liveness can
        only be proven by *use*: any successful lookup — including the
        no-op STD_TOUCH — resets the lifetime.  Directory-style servers
        run a background client that touches everything still reachable
        by name, then call age(); what remains unproven is garbage.

        One continuous hold covers both the decrement pass and the
        expiry pass — a concurrent refresh or touch (which needs the
        same lock) therefore cannot interleave between an entry's
        decrement and its removal, so no stale snapshot can ever expire
        a row whose lifetime was just reset.  ``on_expire`` and the
        revocation fan-out run after the lock is released.
        """
        expired = []
        with self._lock:
            for entry in self._entries.values():
                if entry.lifetime is None:
                    continue
                entry.lifetime -= 1
                if entry.lifetime <= 0:
                    expired.append(entry)
            for entry in expired:
                self._remove(entry)
        for entry in expired:
            if on_expire is not None:
                on_expire(entry)
            self._notify_revocation(entry.number, entry.generation)
        return expired

    # ------------------------------------------------------------------
    # durability hooks (no-ops without a write-ahead log)
    # ------------------------------------------------------------------

    def locked(self, fn):
        """Run ``fn(entries)`` while holding the table lock.

        This is the snapshot primitive: the durable store encodes the
        rows, reads :attr:`high_water` *and* captures the log's replay
        position under a single continuous hold, which is what proves
        every log record before the position redundant with the
        snapshot.
        """
        with self._lock:
            return fn(self._entries)

    def persist(self, number, delta=None):
        """Log an object's data payload after a server mutated it.

        Servers holding durable state inside ``entry.data`` (the
        directory server's name map) call this after each mutation; the
        record is appended under the table lock, so it is ordered
        exactly against create/refresh/destroy and against snapshot
        position capture.  A no-op without a WAL.

        Without ``delta`` the whole payload is re-logged.  ``delta`` is
        the change alone, in the store codec's delta form (see
        ``DirectoryCodec``); it must be an idempotent *assignment* —
        the handler mutated ``entry.data`` before taking this lock, so a
        concurrent snapshot may already hold the change at a log
        position before the delta, and recovery replays it on top.
        """
        if self._wal is None:
            return
        with self._lock:
            self._wal.log_update(number, self._entry(number).data, delta)

    def log_commit(self, src, reply_value, reply_raw):
        """Append a transaction-commit record to the log.

        Taken under the table lock for the same reason as
        :meth:`persist`: a commit must never slip between a snapshot's
        entry encoding and its position capture, or truncation would
        silently drop it.  The store writes everything still unflushed
        with it, so on return the whole transaction is on the medium.
        A no-op without a WAL.
        """
        if self._wal is None:
            return
        with self._lock:
            self._wal.log_commit(src, reply_value, reply_raw)

    def restore_entry(self, entry):
        """Install a recovered row, bypassing the WAL (recovery must not
        re-log what it replays).  The high-water mark is raised past the
        recovered number so later creates cannot collide with it, and a
        number this table had freed (a peer's destroy applied here, the
        recycled number then mirrored back) comes off the free list, so
        a later local create cannot pop it and overwrite the row."""
        number = entry.number
        with self._lock:
            self._entries[number] = entry
            self.raise_high_water(number + 1)
            self._free[:] = [
                freed for freed in self._free if freed[0] != number
            ]

    def raise_high_water(self, mark):
        """Never issue a number below ``mark`` as fresh (recovery hands
        in what the dead incarnation's checkpoint and log recorded)."""
        with self._lock:
            if self.high_water < mark:
                self.high_water = mark

    def snapshot_entries(self):
        """A consistent copy of every live row, as ``(number, secret,
        data, generation)`` tuples — what the chaos engine compares
        across replicas for convergence."""
        with self._lock:
            return [
                (e.number, e.secret, e.data, e.generation)
                for e in self._entries.values()
            ]

    def mint_for(self, number, rights=ALL_RIGHTS):
        """Mint a capability for an existing object *without* validation.

        Servers use this internally (e.g. the directory server re-minting
        a stored capability is wrong — it stores whole capabilities — but
        the memory server minting a process capability after MAKE PROCESS
        is exactly this).  Never expose this over the wire.
        """
        return self._capability(number, self.scheme.mint(
            self._entry(number).secret, Rights(rights)
        ))
