"""Deterministic fault injection for every delivery discipline.

The paper's protocol is designed for a network where "messages can be
lost, duplicated, or corrupted" — yet until this module every simulated
wire delivered 100% of admitted frames.  A :class:`FaultPlan` is a
seeded, reproducible adversary-free fault model: per-frame decisions to
drop, duplicate, corrupt, delay, or reorder, drawn from one private RNG
in frame order, so the same seed over the same traffic produces the same
faults on any host.  That is what lets the DES benchmarks assert
determinism-by-double-run *with* loss, and what gives the at-least-once
retry layer (:mod:`repro.ipc.rpc`) something real to survive.

Fault semantics per discipline
------------------------------
* **drop** — the frame vanishes after admission.  The sender cannot
  tell: ``send`` still returns its admission verdict (exactly the
  admitted-then-lost contract queue overflow already has) and the loss
  shows up only in counters and as a missing reply.
* **duplicate** — the frame is delivered twice.  On the DES wire each
  copy gets its own arrival instant; elsewhere the copies are delivered
  back to back.
* **corrupt** — one bit of the *packed* frame is flipped, then the
  frame is re-parsed.  A frame that no longer parses is dropped (a NIC
  discards a bad checksum); one that parses is delivered corrupted —
  which is precisely the case capability ``check`` validation exists
  for.  ``corrupt_field="capability"`` aims the flip at the packed
  capability's validated fields — object, rights, check — the forgery-
  relevant threat; ``"frame"`` flips anywhere.
* **delay** — on the DES wire, ``delay_ms`` extra virtual milliseconds
  (scaled by a seeded factor in [0.5, 1.5)).  On the untimed
  disciplines a delayed frame is *held back* and re-injected behind the
  next frame through the plan — on a wire with no clock, lateness is
  observable only as overtaking.
* **reorder** — held back and re-injected behind the next frame, in
  every discipline.  A held frame with no successor is released by the
  next send, whenever that is; traffic that simply stops strands it
  (document-level caveat, the same as a frame delayed past the end of
  the world).

Per-link overrides: ``links`` maps a source machine address, or a
``(src, dst)`` pair (``dst`` as stamped on the frame, ``None`` for
port-addressed sends), to a :class:`FaultSpec` replacing the defaults
for frames on that link.

Partitions
----------
:meth:`sever` cuts a *directed* link outright: a severed link transmits
nothing — no drop roll, no hold-back, no counters besides
``partition_drops``.  ``sever(src=a)`` cuts all of ``a``'s egress,
``sever(dst=b)`` all ingress to ``b``, ``sever(a, b)`` just that
direction; :meth:`partition` cuts two machine groups apart (both ways by
default, one way with ``symmetric=False`` — the *asymmetric* partition
where requests arrive but replies vanish), :meth:`isolate` cuts one
machine off entirely.  :meth:`heal` / :meth:`heal_partition` /
:meth:`rejoin` undo exactly what their counterparts cut.  Severed-link
checks are pure set lookups so the healthy path pays nothing, and the
cuts bind at *send* time and again at *delivery* time — a frame already
in flight on the DES heap when the cut lands is lost too, exactly like
a wire yanked mid-transmission.

The plan is deliberately transport-agnostic: :meth:`apply` works on
simulator :class:`~repro.net.network.Frame` objects and
:meth:`apply_datagram` on raw UDP payloads, sharing the same decision
stream and counters.

The pass verdict: ``_decide`` returns None when no fault fired, and
:meth:`apply` returns None when, besides, no held frame is released
behind this one — the caller then sends the frame as a perfect wire
would.  A frame no fault touches costs one lock, one draw per armed
fault, no allocation; the draws are a touched frame's, so a seed faults
the same frames whatever the roll returns.
"""

import random
import threading

from repro.core.capability import PORT_BYTES as _CAP_PORT_BYTES
from repro.net.message import HEADER_BYTES, Message

__all__ = ["FaultSpec", "FaultPlan", "faulty_sendto"]


class FaultSpec:
    """Per-link fault probabilities; all default to 0 (a perfect link).
    Set once: ``silent`` (the spec can never fire, so the roll draws
    nothing) is computed here."""

    __slots__ = ("drop", "duplicate", "corrupt", "delay", "reorder", "silent")

    def __init__(self, drop=0.0, duplicate=0.0, corrupt=0.0, delay=0.0,
                 reorder=0.0):
        for name, p in (("drop", drop), ("duplicate", duplicate),
                        ("corrupt", corrupt), ("delay", delay),
                        ("reorder", reorder)):
            if not 0.0 <= p <= 1.0:
                raise ValueError("%s probability %r outside [0, 1]" % (name, p))
        self.drop = drop
        self.duplicate = duplicate
        self.corrupt = corrupt
        self.delay = delay
        self.reorder = reorder
        self.silent = not (drop or duplicate or corrupt or delay or reorder)

    def __repr__(self):
        return ("FaultSpec(drop=%g, duplicate=%g, corrupt=%g, delay=%g, "
                "reorder=%g)" % (self.drop, self.duplicate, self.corrupt,
                                 self.delay, self.reorder))


class FaultPlan:
    """One seeded fault schedule shared by a network's frames.

    Thread-safe: decisions are serialized under a lock (the socket
    transport sends from several threads).  Determinism holds whenever
    the *traffic order* is deterministic — true by construction on the
    single-threaded simulators, and exactly the property the DES
    double-run asserts.
    """

    def __init__(self, seed=0, drop=0.0, duplicate=0.0, corrupt=0.0,
                 delay=0.0, reorder=0.0, delay_ms=1.0,
                 corrupt_field="frame", links=None):
        if corrupt_field not in ("frame", "capability"):
            raise ValueError("corrupt_field must be 'frame' or 'capability'")
        if delay_ms < 0:
            raise ValueError("delay_ms cannot be negative")
        self.seed = seed
        self.default = FaultSpec(drop, duplicate, corrupt, delay, reorder)
        self.delay_ms = delay_ms
        self.corrupt_field = corrupt_field
        #: src address or (src, dst) -> FaultSpec; pair keys win.
        self.links = dict(links or {})
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        # Frames held back by a reorder/untimed-delay decision, released
        # behind the next frame that passes through the plan.
        self._held = []
        # Directed cuts: (src, dst) severs one link, (src, None) all of
        # src's egress, (None, dst) all ingress to dst.  Mutated under
        # the lock; read lock-free (set membership is atomic under the
        # GIL and a momentarily stale verdict is indistinguishable from
        # the cut landing a frame earlier or later).
        self._severed = set()
        self.reset_stats()

    def reset_stats(self):
        self.frames_seen = 0
        self.injected_drops = 0
        self.injected_duplicates = 0
        self.injected_corruptions = 0
        self.corrupt_unparseable = 0
        self.corrupt_unpackable = 0
        self.last_error = None
        self.injected_delays = 0
        self.injected_reorders = 0
        self.partition_drops = 0
        # "src->dst" -> {fault kind -> count}; sparse, only links where
        # a fault actually fired.
        self._by_link = {}

    def stats(self):
        """Fault counters as a dict (stable keys for benchmarks)."""
        return {
            "frames_seen": self.frames_seen,
            "injected_drops": self.injected_drops,
            "injected_duplicates": self.injected_duplicates,
            "injected_corruptions": self.injected_corruptions,
            "corrupt_unparseable": self.corrupt_unparseable,
            "corrupt_unpackable": self.corrupt_unpackable,
            "injected_delays": self.injected_delays,
            "injected_reorders": self.injected_reorders,
            "partition_drops": self.partition_drops,
            "by_link": {link: dict(kinds)
                        for link, kinds in sorted(self._by_link.items())},
        }

    def _link_count(self, src, dst, kind):
        """Count one fault against its link (caller holds the lock)."""
        link = "%s->%s" % ("*" if src is None else src,
                           "*" if dst is None else dst)
        kinds = self._by_link.get(link)
        if kinds is None:
            kinds = self._by_link[link] = {}
        kinds[kind] = kinds.get(kind, 0) + 1

    def _injected(self, kind, src, dst):
        """Count one injected fault: its kind's total and its link's."""
        total = "injected_" + kind
        setattr(self, total, getattr(self, total) + 1)
        self._link_count(src, dst, kind)

    # ------------------------------------------------------------------
    # partitions
    # ------------------------------------------------------------------

    @property
    def has_partitions(self):
        """True when any link is currently severed (lock-free read)."""
        return bool(self._severed)

    def link_severed(self, src, dst):
        """True when ``src -> dst`` cannot transmit (lock-free read)."""
        severed = self._severed
        return ((src, dst) in severed or (src, None) in severed
                or (None, dst) in severed)

    def sever(self, src=None, dst=None):
        """Cut the directed link ``src -> dst``; ``None`` is a wildcard
        on that side (at least one side must be given)."""
        if src is None and dst is None:
            raise ValueError("sever() needs a src and/or a dst")
        with self._lock:
            self._severed.add((src, dst))

    def heal(self, src=None, dst=None):
        """Undo one :meth:`sever`; with no arguments, heal every cut."""
        with self._lock:
            if src is None and dst is None:
                self._severed.clear()
            else:
                self._severed.discard((src, dst))

    def partition(self, group_a, group_b, symmetric=True):
        """Sever every link from ``group_a`` to ``group_b`` (and back,
        unless ``symmetric=False`` — the asymmetric partition where one
        side's frames still arrive but the other's vanish)."""
        with self._lock:
            for a in group_a:
                for b in group_b:
                    self._severed.add((a, b))
                    if symmetric:
                        self._severed.add((b, a))

    def heal_partition(self, group_a, group_b):
        """Undo :meth:`partition` (either direction) for the two groups."""
        with self._lock:
            for a in group_a:
                for b in group_b:
                    self._severed.discard((a, b))
                    self._severed.discard((b, a))

    def isolate(self, machine):
        """Cut one machine off completely: all egress and all ingress."""
        with self._lock:
            self._severed.add((machine, None))
            self._severed.add((None, machine))

    def rejoin(self, machine):
        """Undo :meth:`isolate` plus any pairwise cuts touching the
        machine."""
        with self._lock:
            self._severed = {(s, d) for s, d in self._severed
                             if s != machine and d != machine}

    def note_partition_drop(self, src, dst):
        """Count one frame lost to a severed link (for delivery-time
        enforcement points that discover the cut outside the plan)."""
        with self._lock:
            self._cut(src, dst)

    def _cut(self, src, dst):
        """A severed link transmits nothing: count the loss (caller
        holds the lock) and return what goes out."""
        self.partition_drops += 1
        self._link_count(src, dst, "partition")
        return []

    def _spec(self, src, dst):
        links = self.links
        return links.get((src, dst)) or links.get(src) or self.default

    # ------------------------------------------------------------------
    # simulator frames
    # ------------------------------------------------------------------

    def apply(self, frame, des=False):
        """Fault one frame: None when it passes (see the module
        docstring), else ``[(frame, extra_delay_seconds), ...]``.

        The list holds every frame to actually transmit *in order*: it
        may be empty (dropped, or held back), contain a duplicate pair,
        a corrupted replacement, and/or previously-held frames released
        behind this one.  ``extra_delay_seconds`` is nonzero only for
        DES-mode delay faults; the untimed disciplines receive 0.0 and
        model lateness by the hold-back reordering instead.
        """
        with self._lock:
            self.frames_seen += 1
            src, dst = frame.src, frame.dst_machine
            if self._severed and self.link_severed(src, dst):
                # No fault rolls, and held frames stay held (they
                # release behind a frame that actually reaches a live
                # link).
                return self._cut(src, dst)
            spec = self._spec(src, dst) if self.links else self.default
            out = None if spec.silent else self._decide(
                frame, spec, src, dst, des, True)
            held = self._held
            if held and (out or not any(f is frame for f, _ in held)):
                # Any frame actually going out drags the held backlog
                # onto the wire behind it.
                out = ([(frame, 0.0)] if out is None else out) + held
                self._held = []
            return out

    def _decide(self, item, spec, src, dst, timed, holdable):
        """The one fault roll, for every carrier: drop → corrupt → delay
        → duplicate → reorder, each drawn only when ``spec`` arms it and
        the carrier can suffer it (caller holds the lock).  Returns None
        when nothing fired (the item goes out as it came, now), else the
        ``[(item, extra_delay_seconds), ...]`` to transmit now; an item
        held back goes to ``_held`` instead.

        ``timed``: the wire has a clock, so a delay is extra seconds and
        each copy of a duplicate gets its own arrival instant; otherwise
        lateness is hold-back.  ``holdable``: the item may wait in
        ``_held`` (a broadcast may not, so untimed it is never delayed,
        and it is never reordered).
        """
        rng = self._rng
        if spec.drop and rng.random() < spec.drop:
            self._injected("drops", src, dst)
            return []
        passed = True
        if spec.corrupt and rng.random() < spec.corrupt:
            self._injected("corruptions", src, dst)
            item = self._corrupt(item)
            if item is None:
                return []
            passed = False
        extra = 0.0
        if (spec.delay and (timed or holdable)
                and rng.random() < spec.delay):
            self._injected("delays", src, dst)
            if not timed:
                self._held.append((item, 0.0))
                return []
            extra = self.delay_ms / 1000.0 * (0.5 + rng.random())
            passed = False
        copies = None
        if spec.duplicate and rng.random() < spec.duplicate:
            self._injected("duplicates", src, dst)
            copies = [(item, extra), (
                item, self.delay_ms / 1000.0 * rng.random() if timed else 0.0)]
        if holdable and spec.reorder and rng.random() < spec.reorder:
            self._injected("reorders", src, dst)
            self._held.extend(copies or ((item, extra),))
            return []
        if copies is None and not passed:
            copies = [(item, extra)]
        return copies

    def apply_broadcast(self, frame, des=False):
        """Fault one broadcast frame: drop, corrupt, duplicate, and (on
        the DES wire) delay only.  Broadcasts never enter the hold-back
        buffer — a LOCATE must not strand a unicast frame behind it, nor
        be re-dispatched down a unicast path later."""
        with self._lock:
            self.frames_seen += 1
            src = frame.src
            if self._severed and (src, None) in self._severed:
                # Only a full egress cut silences a broadcast at the
                # transmitter; pairwise cuts bind per station at
                # delivery time.
                return self._cut(src, None)
            spec = self._spec(src, None)
            out = None if spec.silent else self._decide(
                frame, spec, src, None, des, False)
            return [(frame, 0.0)] if out is None else out

    def _corrupt(self, item):
        """Flip one bit of the packed item.  A datagram goes out flipped
        (the receiving node's unpack is the checksum); a frame is
        re-parsed, and lost — None — when it no longer parses
        (``corrupt_unparseable``) or, a sender's bug rather than the
        wire's noise, would not pack in the first place
        (``corrupt_unpackable``)."""
        if not isinstance(item, tuple):
            raw = bytearray(item)
            self._flip(raw)
            return bytes(raw)
        try:
            raw = bytearray(item.message.pack())
        except Exception as exc:
            self.corrupt_unpackable += 1
            self.last_error = exc
            return None
        self._flip(raw)
        try:
            return item._replace(message=Message.unpack(bytes(raw)))
        except Exception as exc:
            self.corrupt_unparseable += 1
            self.last_error = exc
            return None

    def _flip(self, raw):
        rng = self._rng
        index = None
        if self.corrupt_field == "capability":
            # caplen lives at fixed header offset 38 (see message.py's
            # struct layout); aim inside the packed capability when the
            # frame carries one, else fall back to anywhere.  The flip
            # skips the capability's embedded 6 port bytes: the object
            # table validates (object, rights, check) and never the
            # port, so a port flip is routing noise — the forgery-
            # relevant region is everything after it, and targeting it
            # is what lets tests assert "a corrupted capability never
            # validates" as an invariant rather than a probability.
            caplen = int.from_bytes(raw[38:40], "big")
            if caplen > _CAP_PORT_BYTES:
                index = (HEADER_BYTES + _CAP_PORT_BYTES
                         + rng.randrange(caplen - _CAP_PORT_BYTES))
        if index is None:
            index = rng.randrange(len(raw))
        raw[index] ^= 1 << rng.randrange(8)

    # ------------------------------------------------------------------
    # raw datagrams (the sockets transport)
    # ------------------------------------------------------------------

    def apply_datagram(self, raw, src=None, dst=None):
        """Fault one packed datagram; returns the list of payloads to
        actually transmit.  The decisions are an untimed frame's, roll
        for roll; corruption flips a bit without re-parsing (the
        receiving node's unpack is the checksum); delay and reorder both
        hold the datagram back behind the next send — a UDP wrapper has
        no timers to be late with."""
        with self._lock:
            self.frames_seen += 1
            if self._severed and self.link_severed(src, dst):
                return self._cut(src, dst)
            spec = self._spec(src, dst)
            held, self._held = self._held, []
            out = self._decide(raw, spec, src, dst, False, True)
            if out is None:
                out = [(raw, 0.0)]
            return [payload for payload, _ in out + held]

    def __repr__(self):
        return "FaultPlan(seed=%r, default=%r, links=%d, seen=%d)" % (
            self.seed,
            self.default,
            len(self.links),
            self.frames_seen,
        )


def faulty_sendto(sock_sendto, plan):
    """Wrap a socket ``sendto`` so every datagram passes the plan first.

    The lossy seam for :class:`~repro.net.sockets.SocketNode`: the node
    swaps its transmit function for this wrapper when constructed with a
    ``faults=`` plan, so every egress path — single puts, aggregate
    carriers, buffered flushes — is faulted per *datagram*, exactly the
    unit a real network loses.
    """

    def sendto(raw, dst):
        sent = 0
        for payload in plan.apply_datagram(raw, dst=dst):
            sent = sock_sendto(payload, dst)
        return sent

    return sendto
