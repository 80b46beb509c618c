"""A simulated broadcast LAN with unforgeable source addresses.

The 1986 setting is a single Ethernet-style segment: every frame
physically reaches every station, interface hardware filters by
destination, and "an intruder can forge nearly all parts of a message
being sent except the source address, which is supplied by the network
interface hardware" (§2.4).  The simulator enforces exactly that:

* :meth:`SimNetwork.send` stamps the frame's source with the sending
  NIC's address — senders cannot choose it;
* delivery is by destination *port* (the F-box admission check) or, for
  unicast frames, by (machine, port);
* registered wiretaps see every frame, reproducing a passive intruder;
* counters record frames, deliveries, and drops so benchmarks can report
  message costs (e.g. restrict-via-server = 2 frames vs scheme 3 = 0).
"""

import itertools
from bisect import insort
from collections import deque
from typing import NamedTuple, Optional

from repro.net.message import Message
from repro.net.sched import EventLoop, LatencyModel, VirtualClock, VirtualTimeLoop


class Frame(NamedTuple):
    """One frame as it appears on the wire.

    ``src`` is the network-stamped source machine address.  ``dst_machine``
    is ``None`` for ordinary port-addressed frames (the hardware filter
    decides who takes it) and a machine address for located unicasts.

    A named tuple rather than a dataclass, built on the hot path as
    ``tuple.__new__(Frame, (...))``: just as immutable, several times
    cheaper, and without the Python frame of the named tuple's own
    ``__new__``.
    """

    src: int
    dst_machine: Optional[int]
    message: Message


class SimNetwork:
    """The shared medium connecting every NIC in one simulated system.

    Every frame takes one path: :meth:`send` stamps the source, shows
    the frame to the taps and (on a faulty wire) passes it through the
    fault plan; the routing index — or, for a port it does not list,
    the stations' own filters — answers whether any station admits it
    — that verdict is ``send``'s return value; ``_schedule`` decides
    *when* it is delivered; ``_deliver`` re-checks admission and severed
    links against the live state and hands it to the taker.  The three
    delivery disciplines are the three answers to *when*:

    * ``synchronous=True`` (default) — now: ``send`` recurses straight
      into the taker's admission filter, so a server handler runs (and
      replies) before the sender's ``put`` returns.  Exactly one
      transaction is ever in flight.
    * ``synchronous=False`` — when ``pump()`` reaches it: ``send`` is an
      O(1) enqueue on an :class:`~repro.net.sched.EventLoop`.  With
      ``auto_drain=True`` (the default) every top-level ``send`` drains
      the loop before returning, so blocking clients behave as in
      synchronous mode while all traffic still flows through real queues;
      ``auto_drain=False`` leaves pumping to the caller, which is what
      pipelined clients use to keep many transactions in flight.
    * ``clock=VirtualClock()`` (optionally with
      ``latency=LatencyModel(rtt_ms=2.8)``) — at its *arrival instant* on
      a :class:`~repro.net.sched.VirtualTimeLoop`: ``pump()`` delivers
      events in arrival order, advancing simulated time.  Blocking polls
      (``Nic.poll(timeout=...)``) consume virtual time, never wall time,
      so 1986-era RTTs — and the latency amortization that makes
      pipelining multiplicative — are modeled deterministically on any
      host.  Passing only ``latency`` implies a fresh ``VirtualClock()``.

    ``max_queue_depth`` bounds each per-port ingress queue in deferred
    mode (0 = unbounded); overflowing frames are dropped and counted.
    It is rejected in DES mode, where frames wait on the arrival heap
    rather than per-port queues and nothing overflows.
    """

    def __init__(self, synchronous=True, max_queue_depth=0, auto_drain=True,
                 clock=None, latency=None, faults=None):
        #: Optional :class:`~repro.net.faults.FaultPlan`; None (the
        #: default) keeps every hot path exactly as before — the fault
        #: plane costs one ``is None`` test per send when disabled.
        self._faults = faults
        self._nics = {}
        self._addresses = itertools.count(1)
        self._taps = []
        self._tap_owners = {}
        self._round_robin = {}
        if clock is not None or latency is not None:
            if max_queue_depth:
                # The DES wire has no per-port ingress queues to bound —
                # frames live on the arrival heap until their instant.
                # Refuse rather than silently void the documented
                # drop-and-count contract.
                raise ValueError(
                    "max_queue_depth applies to the event-loop discipline "
                    "(synchronous=False); the DES wire is unbounded"
                )
            self._clock = clock if clock is not None else VirtualClock()
            self._latency = latency if latency is not None else LatencyModel()
            self._loop = VirtualTimeLoop(self, self._clock, self._latency)
        else:
            self._clock = None
            self._latency = None
            self._loop = (
                None if synchronous else EventLoop(self, max_queue_depth)
            )
        self._auto_drain = auto_drain
        # Cached sorted [(address, nic), ...], see _stations().
        self._sorted_stations = None
        # Routing index: wire port -> sorted [machine address, ...] of
        # the stations with a listen()/serve() GET outstanding for it, so
        # a request finds its servers in one lookup.  Invariant: indexed
        # <=> such a GET is outstanding; admitted <=> some station holds
        # a sink.  A transaction's fresh reply port is admitted and never
        # indexed — its reply comes by unicast — and a port-addressed
        # frame for a port not listed here asks the stations (_holders).
        self._listeners = {}
        # Wire statistics, reset via reset_stats().
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_dropped = 0
        self.broadcasts = 0

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------

    def attach(self, nic):
        """Attach a NIC and assign its (unforgeable) machine address."""
        address = next(self._addresses)
        self._nics[address] = nic
        self._sorted_stations = None
        return address

    def detach(self, address):
        """Remove a machine from the network (e.g. simulating a crash).

        Everything keyed by the machine goes with it: its routing-index
        entries, any now-idle round-robin counters, and any wiretaps it
        registered with ``owner=address`` — long simulations with churn
        must not accumulate state for dead stations.
        """
        nic = self._nics.pop(address, None)
        self._sorted_stations = None
        if nic is not None:
            # Its index entries are among its own sinks (the rest are
            # reply ports, which were never indexed).
            for port in nic._sinks:
                self.unregister_listener(address, port)
        for tap in self._tap_owners.pop(address, ()):
            if tap in self._taps:
                self._taps.remove(tap)

    # ------------------------------------------------------------------
    # routing index (maintained by NICs)
    # ------------------------------------------------------------------

    def register_listener(self, address, wire_port):
        """Record that ``address`` serves ``wire_port`` (idempotent)."""
        if address not in self._nics:
            return  # detached machine; nothing to route to
        takers = self._listeners.get(wire_port)
        if takers is None:
            self._listeners[wire_port] = [address]
        elif address not in takers:
            insort(takers, address)

    def unregister_listener(self, address, wire_port):
        """Withdraw a registration (port unlistened, server stopped or
        machine detached); a reply port was never registered and finds
        nothing here."""
        takers = self._listeners.get(wire_port)
        if takers is None:
            return
        try:
            takers.remove(address)
        except ValueError:
            return
        if not takers:
            # Last listener gone: the round-robin counter goes with the
            # index entry.
            del self._listeners[wire_port]
            self._round_robin.pop(wire_port, None)

    # ------------------------------------------------------------------
    # the pipeline: send -> admit -> schedule(when) -> deliver
    # ------------------------------------------------------------------

    def send(self, src_nic, message, dst_machine=None):
        """Put one frame on the wire.

        The source address comes from the NIC object itself, never from
        the caller — this is the §2.4 unforgeability assumption.  Returns
        True if some NIC accepted the frame (in deferred and DES mode: if
        some NIC's admission filter *would* take it, see :meth:`_admits`);
        False means exactly one thing under every discipline: nobody
        admits the port.

        A frame can be *admitted, then lost* — to a full ingress queue,
        or to the fault plan (the verdict is computed for the pristine
        frame, whatever the plan did to it).  That loss is silent at the
        sender, like a real network dropping a frame in a full buffer:
        ``send`` still returns True and the loss shows up only in
        ``frames_dropped`` / ``dropped_overflow`` / the plan's counters
        and as a missing reply.  A frame the plan passes takes the
        perfect wire's path below; each copy of one it touched
        (duplicates, corrupted replacements, released held-back frames)
        is scheduled like any other frame.
        """
        frame = tuple.__new__(Frame, (src_nic.address, dst_machine, message))
        self.frames_sent += 1
        if self._taps:
            for tap in self._taps:
                tap(frame)
        faults = self._faults
        if faults is not None:
            copies = faults.apply(frame, self._clock is not None)
            if copies is not None or faults._severed:
                # While a link is cut, _deliver may refuse a frame the
                # stations admit: the verdict is taken apart.
                admitted = self._admits(frame)
                if copies is None:
                    copies = ((frame, 0.0),)
                for out, extra in copies:
                    self._schedule(out, extra)
                return admitted
        if self._loop is None:
            return self._deliver(frame)  # _schedule's "now", one call less
        return self._schedule(frame)

    def _stations(self):
        """Sorted ``[(address, nic), ...]``, cached between attach and
        detach."""
        stations = self._sorted_stations
        if stations is None:
            stations = self._sorted_stations = sorted(self._nics.items())
        return stations

    def _holders(self, wire_port):
        """Sorted addresses of the stations whose filter admits a port
        the index does not list — the paper's wire: the frame reaches
        every station and each F-box decides for itself (§2.2)."""
        return [a for a, nic in self._stations() if wire_port in nic._sinks]

    def _admits(self, frame):
        """Would any station take this frame?  One lookup for a unicast
        or a served port; otherwise the stations are asked."""
        dest = frame.message.dest
        if frame.dst_machine is not None:
            nic = self._nics.get(frame.dst_machine)
            return nic is not None and dest in nic._sinks
        return dest in self._listeners or bool(self._holders(dest))

    def _schedule(self, frame, extra=0.0):
        """Decide *when* one frame is delivered — the only place the
        disciplines differ (see the class docstring) — and return the
        admission verdict.

        The DES arm has no auto-drain: delivery *requires* simulated time
        to pass, and only a blocking waiter (``poll(timeout=...)``) or an
        explicit ``pump()`` may advance the clock.  ``extra`` is a
        fault-injected delay in virtual seconds; the plan hands the
        untimed disciplines 0.0 and models lateness by hold-back.
        """
        loop = self._loop
        if loop is None:
            return self._deliver(frame)
        if self._clock is None:
            admitted = self._enqueue(frame, loop)
            if admitted and self._auto_drain and not loop._draining:
                loop.pump()
            return admitted
        if not self._admits(frame):
            self.frames_dropped += 1
            return False
        loop.schedule(frame, extra=extra)
        return True

    def _enqueue(self, frame, loop):
        """Deferred-mode admit + express-or-queue, O(1); returns the
        admission verdict.

        Express lane: while the loop is draining, a unicast frame whose
        sink is a passive queue (a client blocked in GET — the shape of
        every transaction reply) is appended to that queue directly.  The
        event loop exists to schedule *computation* (handler dispatch,
        which can recurse, overload, and starve); delivery to a deque has
        no side effects and would provably happen within this same drain,
        so expressing it skips one enqueue/dispatch round trip per reply
        without changing anything a client can observe — including the
        ``max_queue_depth`` bound, which is enforced against the sink.
        The lane does not fire while any link is cut: a queued frame
        meets the severed-link check in :meth:`_deliver`, an expressed
        one would bypass it.
        """
        dest = frame.message.dest
        dst = frame.dst_machine
        if dst is not None:
            nic = self._nics.get(dst)
            sink = nic._sinks.get(dest) if nic is not None else None
            if sink is None:
                self.frames_dropped += 1
                return False
            if (
                loop._draining
                and type(sink) is deque
                and dest not in loop._queues
                and (not loop.max_depth or len(sink) < loop.max_depth)
                and (self._faults is None or not self._faults._severed)
            ):
                # The _queues guard keeps per-port FIFO order: if earlier
                # frames for this port are still scheduled, this one must
                # line up behind them.
                sink.append(frame)
                nic.received += 1
                self.frames_delivered += 1
                return True
        elif dest not in self._listeners and not self._holders(dest):
            self.frames_dropped += 1
            return False
        if not loop.enqueue(frame):
            self.frames_dropped += 1  # admitted, then lost to a full queue
        return True

    def _deliver(self, frame):
        """Hand one frame over *now* and count it — the arrival half of
        every discipline (``send`` when synchronous, the pump's per-frame
        turn, a DES event's instant).

        Admission is re-checked against the live filters, and severed
        links bind here a second time: a frame in flight when the cut
        landed is lost on arrival, like a wire yanked mid-transit.

        A port-addressed frame physically reaches every station (taps
        model that); for a served port the index answers "who admits
        this" in one lookup instead of a scan of every NIC's filter, and
        several reachable machines serving one port (a multi-server
        service) take turns, like a hardware arbiter would.  No arbiter
        state is kept for an unindexed port: were two stations ever to
        hold one reply port, the lowest reachable address takes it.
        """
        faults = self._faults
        partitioned = faults is not None and faults._severed
        dst = frame.dst_machine
        nic = None
        if dst is not None:
            if partitioned and faults.link_severed(frame.src, dst):
                faults.note_partition_drop(frame.src, dst)
            else:
                nic = self._nics.get(dst)
        else:
            dest = frame.message.dest
            served = self._listeners.get(dest)
            takers = self._holders(dest) if served is None else served
            if takers and partitioned:
                src = frame.src
                takers = [a for a in takers if not faults.link_severed(src, a)]
                if not takers:
                    faults.note_partition_drop(src, None)
            if takers:
                if len(takers) == 1 or served is None:
                    nic = self._nics[takers[0]]
                else:
                    start = self._round_robin.get(dest, 0)
                    self._round_robin[dest] = start + 1
                    nic = self._nics[takers[start % len(takers)]]
        if nic is not None and nic.accept(frame):
            self.frames_delivered += 1
            return True
        self.frames_dropped += 1
        return False

    def _deliver_broadcast(self, frame):
        """Deliver one broadcast frame to every other station's handlers
        and count the takers — :meth:`_deliver` for broadcasts."""
        count = 0
        src = frame.src
        faults = self._faults
        partitioned = faults is not None and faults._severed
        for addr, nic in self._stations():
            if addr == src:
                continue
            if partitioned and faults.link_severed(src, addr):
                # Pairwise cuts bind per receiving station: the segment
                # carries the broadcast, the cut link does not.
                faults.note_partition_drop(src, addr)
                continue
            if nic.accept_broadcast(frame):
                count += 1
        self.frames_delivered += count
        return count

    def send_bulk(self, src_nic, messages, dst_machine=None):
        """Put a batch of same-destination frames on the wire at once.

        The issue half of a pipelined client: every message must carry
        the same ``dest`` port (one admission verdict covers the batch)
        and the same ``dst_machine``.  Sources are stamped from the NIC
        exactly as in :meth:`send`, every tap sees every frame, and in
        deferred mode the whole batch lands on one ingress queue in one
        extend — without the per-frame auto-drain, which is the point:
        the batch stays in flight until the caller pumps.  Returns the
        number of frames *admitted* (0 when nobody listens on the port);
        frames beyond ``max_queue_depth`` are admitted-then-lost, counted
        in ``frames_dropped``/``dropped_overflow`` like any overflow.
        """
        if not messages:
            return 0
        loop = self._loop
        if (loop is None or self._clock is not None
                or self._faults is not None):
            # Synchronous network (no queue to batch onto), DES (one
            # arrival instant per frame) or a faulty wire (every frame
            # must pass the plan individually, in send order): per-frame
            # send keeps the respective semantics.
            return sum([self.send(src_nic, m, dst_machine) for m in messages])
        src = src_nic.address
        frames = [tuple.__new__(Frame, (src, dst_machine, m)) for m in messages]
        self.frames_sent += len(frames)
        if self._taps:
            for frame in frames:
                for tap in self._taps:
                    tap(frame)
        if not self._admits(frames[0]):
            self.frames_dropped += len(frames)
            return 0
        enqueued = loop.enqueue_bulk(messages[0].dest, frames)
        self.frames_dropped += len(frames) - enqueued
        return len(frames)

    def send_unicast_bulk(self, src_nic, pairs):
        """Put a batch of unicast frames on the wire — the egress shape of
        a batch server's replies: ``pairs`` is ``[(message, dst), ...]``.

        Per-frame behavior is exactly :meth:`send`'s (source stamping,
        taps, counters, express-or-enqueue in deferred mode); the batch
        only hoists the per-call setup and drains once.  Returns the
        number accepted.
        """
        loop = self._loop
        if (loop is None or self._taps or self._clock is not None
                or self._faults is not None):
            # Synchronous, tapped, DES, or faulty delivery: per-frame
            # send keeps the respective semantics (recursion, tap order,
            # one arrival instant per reply, or per-frame fault draws).
            return sum([self.send(src_nic, m, dst) for m, dst in pairs])
        src = src_nic.address
        enqueue = self._enqueue
        admitted = 0
        for message, dst in pairs:
            if enqueue(tuple.__new__(Frame, (src, dst, message)), loop):
                admitted += 1
        self.frames_sent += len(pairs)
        if self._auto_drain and not loop._draining:
            loop.pump()
        return admitted

    def broadcast(self, src_nic, message):
        """Deliver a frame to every station's broadcast handler (LOCATE).

        Broadcast models the shared segment itself, so it is delivered
        immediately in the synchronous and deferred disciplines; replies
        the handlers send ride the deferred queues like any other frame.
        Under a virtual clock the broadcast propagates like everything
        else: one event delivers it to every station at ``now + delay``,
        so a LOCATE costs a full virtual RTT (broadcast out, HERE back) —
        the §4 economics the DES mode exists to model.  The return value
        is then the number of *other* attached stations (who will all see
        the frame at its arrival instant), not a delivery count.
        """
        frame = Frame(src=src_nic.address, dst_machine=None, message=message)
        self.frames_sent += 1
        self.broadcasts += 1
        for tap in self._taps:
            tap(frame)
        des = self._clock is not None
        copies = ((frame, 0.0),) if self._faults is None else (
            self._faults.apply_broadcast(frame, des))
        if des:
            for out, extra in copies:
                self._loop.schedule(out, broadcast=True, extra=extra)
            return len(self._nics) - (src_nic.address in self._nics)
        return sum([self._deliver_broadcast(out) for out, _ in copies])

    # ------------------------------------------------------------------
    # deferred-mode scheduling
    # ------------------------------------------------------------------

    @property
    def loop(self):
        """The :class:`~repro.net.sched.EventLoop` /
        :class:`~repro.net.sched.VirtualTimeLoop`, or None when
        synchronous."""
        return self._loop

    @property
    def clock(self):
        """The :class:`~repro.net.sched.VirtualClock`, or None outside
        DES mode.  Stations read this once at attach time to decide
        whether their blocking polls consume virtual or wall time."""
        return self._clock

    @property
    def pending(self):
        """Frames queued for later dispatch (always 0 when synchronous)."""
        return self._loop.pending if self._loop is not None else 0

    def pump(self, budget=None):
        """Dispatch up to ``budget`` deferred frames (all if None).

        A no-op returning 0 in synchronous mode, so callers need not care
        which discipline the network runs.
        """
        return self._loop.pump(budget) if self._loop is not None else 0

    # ------------------------------------------------------------------
    # intruder instrumentation
    # ------------------------------------------------------------------

    def add_tap(self, callback, owner=None):
        """Register a promiscuous wiretap; it sees every frame verbatim.

        ``owner`` optionally ties the tap to a machine address so that
        :meth:`detach` of that machine also removes the tap (an intruder's
        wall-socket tap dies with its station).
        """
        self._taps.append(callback)
        if owner is not None:
            self._tap_owners.setdefault(owner, []).append(callback)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def reset_stats(self):
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_dropped = 0
        self.broadcasts = 0
        loop = self._loop
        if loop is not None:
            loop.reset_stats()

    def stats(self):
        """Current wire counters as a dict (stable keys for benchmarks).

        In deferred mode a ``scheduler`` sub-dict carries the event
        loop's queue counters; the top-level keys are identical in both
        modes.
        """
        counters = {
            "frames_sent": self.frames_sent,
            "frames_delivered": self.frames_delivered,
            "frames_dropped": self.frames_dropped,
            "broadcasts": self.broadcasts,
        }
        if self._loop is not None:
            counters["scheduler"] = self._loop.stats()
        if self._faults is not None:
            counters["faults"] = self._faults.stats()
        return counters
