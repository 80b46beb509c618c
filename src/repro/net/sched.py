"""The event-loop delivery engine: deferred dispatch with real queues.

The paper's transaction (§2.1) is one blocking round trip, and the
synchronous simulator reproduces that literally — ``SimNetwork.send``
recurses straight into ``nic.accept``, so exactly one transaction is ever
in flight.  This module is the other delivery discipline: ``send`` becomes
an O(1) enqueue onto an :class:`EventLoop`, and a ``pump()`` drain loop
dispatches admitted frames to their stations later.  That is the standard
asynchronous message-passing model of distributed-system theory (frames
in flight live in channel queues; delivery is a separate scheduler step),
and it is what lets the system sustain many in-flight transactions and
model queueing under heavy traffic.

Semantics
---------
* **Admission is decided at enqueue time** ("would any station take this
  frame?" is one lookup — the routing index for a served port, the
  addressed station's filter for a unicast); ``send`` returns that
  verdict immediately, which keeps ``trans``'s ``PortNotLocated``
  behavior identical.  Delivery is **re-checked at dispatch time**: a
  listener that withdrew its GET (or a machine that detached) between
  enqueue and pump drops the frame, like a real network losing a packet
  addressed to a dead host.
* **Per-port ingress queues.**  Every wire port with frames in flight has
  its own FIFO; the pump rotates round-robin across ports, one frame per
  turn, so a flooded port cannot starve the others.  Replicated servers
  additionally share load through the network's round-robin arbiter at
  dispatch, exactly as in synchronous mode.
* **Overload is visible.**  ``max_depth`` bounds each port's queue; a
  frame arriving at a full queue is dropped and counted
  (``dropped_overflow``), which is how "heavy traffic" scenarios observe
  loss instead of unbounded memory growth.
* **Re-entrancy.**  Handlers run inside ``pump()`` and their own sends
  enqueue without recursing (the loop notices it is already draining).
  A handler that raises aborts the current pump with the remaining
  frames still queued; the next pump carries on.

This module also hosts the third delivery discipline: the virtual-clock
discrete-event mode (:class:`VirtualClock`, :class:`LatencyModel`,
:class:`VirtualTimeLoop`), in which frames arrive at *scheduled
instants* of simulated time rather than "whenever the pump runs".  That
is what lets the simulator model 1986-era wire latencies (§4's 1.4 ms
locate, RPC economics) deterministically on any host — see
docs/PERFORMANCE.md §"Virtual-clock DES".
"""

import random
from collections import deque
from heapq import heappop, heappush

from repro.net.nic import _BatchSink

# Heap-event kind marker distinguishing a timer callback from a frame's
# broadcast flag (see VirtualTimeLoop.call_at).  Never compared by the
# heap: the unique schedule seq breaks every tie first.
_TIMER = object()


class EventLoop:
    """Deferred frame delivery for one :class:`~repro.net.network.SimNetwork`.

    Created by ``SimNetwork(synchronous=False)``; not normally constructed
    directly.  ``max_depth`` bounds each per-port ingress queue (0 means
    unbounded).
    """

    __slots__ = (
        "network",
        "max_depth",
        "_queues",
        "_ready",
        "_draining",
        "dispatched",
        "dropped_overflow",
        "dropped_dead",
        "max_depth_seen",
    )

    def __init__(self, network, max_depth=0):
        self.network = network
        self.max_depth = max_depth
        # wire port -> deque of Frames in flight for it.  An entry exists
        # iff the port has at least one queued frame (emptied queues are
        # deleted immediately so per-transaction reply ports cannot
        # accumulate dict residue).
        self._queues = {}
        # Round-robin rotation of ports with pending frames; each pending
        # port appears exactly once.
        self._ready = deque()
        self._draining = False
        #: Frames handed to a station's admission filter by pump().
        self.dispatched = 0
        #: Frames dropped at enqueue because the port's queue was full.
        self.dropped_overflow = 0
        #: Frames admitted at enqueue but undeliverable at dispatch (the
        #: listener unlistened or its machine detached in between).
        self.dropped_dead = 0
        #: High-water mark of any single port queue.
        self.max_depth_seen = 0

    # ------------------------------------------------------------------
    # ingress (called by SimNetwork.send)
    # ------------------------------------------------------------------

    def enqueue(self, frame):
        """Queue one admitted frame; O(1).  False means an overflow drop."""
        dest = frame.message.dest
        queues = self._queues
        q = queues.get(dest)
        if q is None:
            queues[dest] = q = deque((frame,))
            self._ready.append(dest)
            if self.max_depth_seen == 0:
                self.max_depth_seen = 1
            return True
        if self.max_depth and len(q) >= self.max_depth:
            self.dropped_overflow += 1
            return False
        q.append(frame)
        if len(q) > self.max_depth_seen:
            self.max_depth_seen = len(q)
        return True

    def enqueue_bulk(self, dest, frames):
        """Queue a batch of frames that all carry wire port ``dest``.

        The batch counterpart of :meth:`enqueue` for pipelined issuers:
        one queue lookup and one extend for the whole batch.  Returns the
        number accepted (the tail beyond ``max_depth`` is dropped and
        counted, exactly as per-frame enqueue would have).
        """
        count = len(frames)
        if count == 0:
            return 0
        queues = self._queues
        q = queues.get(dest)
        if q is None:
            queues[dest] = q = deque()
            self._ready.append(dest)
        if self.max_depth:
            space = self.max_depth - len(q)
            if space < count:
                overflow = count - space if space > 0 else count
                self.dropped_overflow += overflow
                count -= overflow
                frames = frames[:count]
        q.extend(frames)
        depth = len(q)
        if depth > self.max_depth_seen:
            self.max_depth_seen = depth
        if depth == 0:
            # Nothing fit at all: drop the queue we just created rather
            # than leave an empty entry in the rotation.
            del queues[dest]
            self._ready.remove(dest)
        return count

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def pump(self, budget=None):
        """Dispatch up to ``budget`` queued frames (all of them if None).

        Rotates round-robin across ports with pending frames, one frame
        per port per turn.  Frames enqueued by handlers *during* the pump
        join the rotation and are dispatched in the same call (unless the
        budget runs out first).  Returns the number of frames dispatched;
        a re-entrant call from inside a handler returns 0 immediately.
        """
        if self._draining or not self._ready:
            return 0
        self._draining = True
        dispatched = 0
        dead = 0
        ready = self._ready
        queues = self._queues
        network = self.network
        nics = network._nics
        listeners = network._listeners
        faults = network._faults
        deliver = network._deliver
        try:
            while ready and (budget is None or dispatched < budget):
                dest = ready.popleft()
                q = queues[dest]
                # Run coalescing: when this is the only pending port and
                # its lone listener is taking port-addressed frames, the
                # head run is drained as one delivery — the software
                # analogue of a NIC handing its whole DMA ring to the
                # driver per interrupt.  With other ports pending, a
                # replicated service on the port or a port the index
                # does not list, strict one-frame-per-turn rotation
                # (and _deliver's choice of taker) applies.
                # While any link is cut (re-read every turn: a handler
                # may cut or heal mid-drain) the run's frames may have
                # different (severed or live) source links, so each goes
                # through _deliver's check.
                partitioned = faults is not None and faults._severed
                if not ready and not partitioned and q[0].dst_machine is None:
                    takers = listeners.get(dest)
                    sink = None
                    if takers is not None and len(takers) == 1:
                        nic = nics[takers[0]]
                        sink = nic._sinks.get(dest)
                    # Coalesce only for sinks that take the whole run in
                    # one hand-over (a passive queue, or a batch handler
                    # that owns every frame it is given) — a per-frame
                    # handler that raised mid-run would otherwise lose
                    # the popped remainder, breaking the "remaining
                    # frames still queued" abort semantics.
                    if type(sink) is deque or type(sink) is _BatchSink:
                        limit = (
                            len(q)
                            if budget is None
                            else min(len(q), budget - dispatched)
                        )
                        run = []
                        while limit and q and q[0].dst_machine is None:
                            run.append(q.popleft())
                            limit -= 1
                        if q:
                            ready.append(dest)
                        else:
                            # Delete before delivering: frames a batch
                            # handler enqueues for this port get a fresh
                            # queue and rotation slot.
                            del queues[dest]
                        dispatched += len(run)
                        try:
                            nic.accept_run(dest, run)
                        finally:
                            # Counted even if a batch handler raises: it
                            # owns every frame it was handed.
                            network.frames_delivered += len(run)
                        continue
                # Rotation: one frame per pending port per turn.
                frame = q.popleft()
                if q:
                    ready.append(dest)
                else:
                    # Delete before dispatching: if the handler below
                    # enqueues more frames for this port they get a
                    # fresh queue and a fresh rotation slot.
                    del queues[dest]
                dispatched += 1
                if not deliver(frame):
                    dead += 1
        finally:
            self._draining = False
            self.dispatched += dispatched
            self.dropped_dead += dead
        return dispatched

    def run(self):
        """Drain until no frames are pending; returns frames dispatched."""
        return self.pump(None)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def pending(self):
        """Total frames currently queued across all ports."""
        return sum(len(q) for q in self._queues.values())

    def depth(self, wire_port):
        """Queue depth for one wire port (0 if nothing is pending)."""
        q = self._queues.get(wire_port)
        return len(q) if q is not None else 0

    def stats(self):
        """Scheduler counters as a dict (stable keys for benchmarks)."""
        return {
            "pending": self.pending,
            "ports_pending": len(self._queues),
            "dispatched": self.dispatched,
            "dropped_overflow": self.dropped_overflow,
            "dropped_dead": self.dropped_dead,
            "max_depth_seen": self.max_depth_seen,
        }

    def reset_stats(self):
        """Zero the counters (queued frames stay queued)."""
        self.dispatched = 0
        self.dropped_overflow = 0
        self.dropped_dead = 0
        self.max_depth_seen = self.pending and max(
            len(q) for q in self._queues.values()
        )

    def __repr__(self):
        return "EventLoop(pending=%d, dispatched=%d)" % (
            self.pending,
            self.dispatched,
        )


# ----------------------------------------------------------------------
# virtual-clock discrete-event simulation
# ----------------------------------------------------------------------


class VirtualClock:
    """Simulated time for discrete-event delivery.

    The clock only moves when an event is delivered (to that event's
    arrival instant) or when a blocking wait times out (to the waiter's
    deadline) — never from the host's wall clock.  That is what makes a
    DES run deterministic: the same seed produces the same event order
    and the same final ``now`` on any machine, at any host speed.
    """

    __slots__ = ("now",)

    def __init__(self, start=0.0):
        #: Current simulated time, in seconds.
        self.now = float(start)

    def advance_to(self, instant):
        """Move time forward to ``instant``; moving backwards is a no-op
        (events are popped in arrival order, so an earlier instant means
        the clock already passed it)."""
        if instant > self.now:
            self.now = instant

    def advance(self, seconds):
        """Move time forward by a duration (e.g. a timed-out wait)."""
        if seconds > 0:
            self.now += seconds

    def __repr__(self):
        return "VirtualClock(now=%.6f)" % self.now


class LatencyModel:
    """Per-link delivery delay for the DES network.

    One-way delay of a frame =

    * ``rtt_ms / 2`` — the propagation base (the paper's §4 numbers are
      round-trip figures, so the model is configured in RTT terms:
      ``LatencyModel(rtt_ms=2.8)`` reproduces the 1986 locate+RPC era);
    * ``+ len(packed frame) / bytes_per_sec`` — serialization, when a
      bandwidth is configured (None skips the pack entirely);
    * ``+ uniform(0, jitter_ms)`` — drawn from a *seeded* private RNG, so
      jitter varies per frame yet the whole run stays reproducible.

    The model is per-frame: it does not model link occupancy (two frames
    sent at the same instant both arrive one delay later, rather than
    queueing behind each other).  That is the standard message-passing
    model of distributed-system theory — per-link delivery delays,
    independent frames.
    """

    __slots__ = ("rtt_ms", "one_way", "jitter", "bytes_per_sec", "_rng")

    def __init__(self, rtt_ms=2.8, jitter_ms=0.0, bytes_per_sec=None, seed=0):
        if rtt_ms < 0 or jitter_ms < 0:
            raise ValueError("latencies cannot be negative")
        self.rtt_ms = rtt_ms
        self.one_way = rtt_ms / 2000.0
        self.jitter = jitter_ms / 1000.0
        self.bytes_per_sec = bytes_per_sec
        self._rng = random.Random(seed)

    def delay(self, frame):
        """One-way delivery delay for ``frame``, in virtual seconds."""
        d = self.one_way
        if self.bytes_per_sec:
            d += len(frame.message.pack()) / self.bytes_per_sec
        if self.jitter:
            d += self._rng.random() * self.jitter
        return d

    def __repr__(self):
        return "LatencyModel(rtt_ms=%g, jitter_ms=%g)" % (
            self.rtt_ms,
            self.jitter * 1000.0,
        )


class VirtualTimeLoop:
    """Time-ordered frame delivery for a DES :class:`SimNetwork`.

    Created by ``SimNetwork(clock=VirtualClock(), latency=...)``; not
    normally constructed directly.  ``send`` becomes a :meth:`schedule`
    (arrival instant = ``clock.now + latency.delay(frame)``, pushed onto
    a heap) and :meth:`pump` pops events in arrival order, advancing the
    clock to each event's instant before delivering it.

    Semantics
    ---------
    * **Admission is decided at schedule time**
      (same contract as :class:`EventLoop`), and **re-checked at
      delivery**: a listener that withdrew its GET — or a machine that
      detached — while the frame was "on the wire" drops it
      (``dropped_dead``), exactly like a packet addressed to a dead host.
    * **Ties break by schedule order.**  The heap key is
      ``(arrival, seq)``, so two frames arriving at the same instant
      deliver in the order they were sent — with zero jitter, per-link
      FIFO holds; with jitter, frames may overtake each other, which is
      the reordering a real network exhibits.
    * **Re-entrant stepping is allowed.**  A handler that blocks in a
      timed poll mid-delivery (a server acting as a client of another
      server) steps the same heap from inside :meth:`pump`; the event it
      pops was going to be delivered anyway, just deeper in the stack.
      This is how nested transactions consume virtual time correctly.
    """

    __slots__ = (
        "network",
        "clock",
        "latency",
        "_events",
        "_seq",
        "scheduled",
        "dispatched",
        "dropped_dead",
        "timers_fired",
    )

    def __init__(self, network, clock, latency):
        self.network = network
        self.clock = clock
        self.latency = latency
        # Heap of (arrival instant, schedule seq, is_broadcast, frame).
        # Timer events reuse the slots as (instant, seq, _TIMER, action).
        self._events = []
        self._seq = 0
        #: Frames given an arrival instant by schedule().
        self.scheduled = 0
        #: Events popped and handed to delivery.
        self.dispatched = 0
        #: Frames admitted at schedule time but undeliverable on arrival.
        self.dropped_dead = 0
        #: Timer callbacks fired by call_at().
        self.timers_fired = 0

    # ------------------------------------------------------------------
    # ingress (called by SimNetwork)
    # ------------------------------------------------------------------

    def schedule(self, frame, broadcast=False, extra=0.0):
        """Give one frame an arrival instant; returns that instant.

        ``extra`` adds virtual seconds on top of the latency model — the
        hook fault-injected delays (:mod:`repro.net.faults`) use, so a
        delayed frame consumes simulated time exactly like a slow link
        would, and the run stays deterministic.
        """
        arrival = self.clock.now + self.latency.delay(frame) + extra
        self._seq += 1
        heappush(self._events, (arrival, self._seq, broadcast, frame))
        self.scheduled += 1
        return arrival

    def call_at(self, instant, action):
        """Schedule ``action()`` to fire when virtual time reaches
        ``instant`` (clamped to now — time never runs backwards).

        Timers share the event heap with frames, so they fire in strict
        arrival order *wherever* the heap is being stepped — including
        from inside a blocking client poll, which is what lets a chaos
        timeline cut a link in the middle of someone's transaction.
        Returns the (possibly clamped) fire instant.
        """
        instant = max(instant, self.clock.now)
        self._seq += 1
        heappush(self._events, (instant, self._seq, _TIMER, action))
        return instant

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def step(self, until=None):
        """Deliver the earliest pending event, advancing the clock to its
        arrival instant.  Returns True if an event was delivered; False
        when nothing is pending or the next arrival lies beyond
        ``until`` (the clock is then left untouched — the caller owns
        the decision to burn the remaining wait)."""
        events = self._events
        if not events:
            return False
        if until is not None and events[0][0] > until:
            return False
        arrival, _, kind, payload = heappop(events)
        self.clock.advance_to(arrival)
        if kind is _TIMER:
            self.timers_fired += 1
            payload()
            return True
        self.dispatched += 1
        network = self.network
        if kind:
            network._deliver_broadcast(payload)
            return True
        if not network._deliver(payload):
            self.dropped_dead += 1
        return True

    def pump(self, budget=None, until=None):
        """Deliver up to ``budget`` events (all if None) whose arrival is
        within ``until`` (unbounded if None); returns the number
        delivered.  Events scheduled by handlers *during* the pump join
        the heap and are delivered in arrival order like any other."""
        delivered = 0
        while (budget is None or delivered < budget) and self.step(until):
            delivered += 1
        return delivered

    def run(self):
        """Drain every pending event; returns the number delivered."""
        return self.pump()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def pending(self):
        """Frames currently in flight on the simulated wire."""
        return len(self._events)

    def stats(self):
        """Scheduler counters as a dict (stable keys for benchmarks)."""
        return {
            "pending": self.pending,
            "scheduled": self.scheduled,
            "dispatched": self.dispatched,
            "dropped_dead": self.dropped_dead,
            "timers_fired": self.timers_fired,
            "virtual_now": self.clock.now,
        }

    def reset_stats(self):
        """Zero the counters (in-flight frames stay scheduled; the clock
        keeps its instant — time never runs backwards)."""
        self.scheduled = 0
        self.dispatched = 0
        self.dropped_dead = 0
        self.timers_fired = 0

    def __repr__(self):
        return "VirtualTimeLoop(now=%.6f, pending=%d)" % (
            self.clock.now,
            self.pending,
        )
