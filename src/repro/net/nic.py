"""The network interface: GET/PUT through an F-box (§2.2).

A :class:`Nic` is one machine's attachment to the wire.  All egress goes
through :meth:`put`, which always applies the F-box transformation — there
is deliberately no other way onto the network, reproducing the paper's
"users cannot bypass" assumption.

Receiving follows the GET model: ``listen(X)`` does what the hardware
GET(X) does — computes F(X) and admits frames addressed to it.  A genuine
server passes its secret get-port G and so listens on the public put-port
P = F(G); an intruder passing P listens on the useless F(P).  Admitted
frames land in per-port FIFO queues (client replies) or are handed to a
registered handler (server request loops).
"""

from collections import deque
from typing import Any, Optional, Protocol, runtime_checkable

from repro.core.ports import as_port, draw_ports
from repro.net.fbox import FBox

#: Fresh reply ports are drawn and imaged this many at a time (see
#: :func:`refill_reply_pool`).  A constant, not a knob: 16 is where the
#: batch pays and the tail it costs is still small (docs/PERFORMANCE.md
#: has the 4 / 8 / 16 / 32 ablation).  It must divide 400: the suite's
#: traced-echo test counts one F per transaction over such a window.
REPLY_BLOCK = 16

#: Randomness sources a station keeps a pool for.  Two or three clients
#: with their own source commonly share one station; past this many the
#: pools are dropped wholesale, like every other cache on the wire path.
_REPLY_SOURCES_MAX = 8


@runtime_checkable
class Station(Protocol):
    """What protocol code (:mod:`repro.ipc.rpc`, :mod:`repro.ipc.server`,
    :mod:`repro.ipc.locate`) may ask of a station — declared once, read
    as plain attributes, implemented by :class:`Nic` and
    :class:`~repro.net.sockets.SocketNode`.  A declaration, not a base
    class: neither station inherits from it."""

    #: The unforgeable machine address the wire stamps on every frame.
    address: Any
    #: The VirtualClock that timeouts are spent on, or None for wall time.
    clock: Optional[Any]
    #: True when ingress arrives in runs (event-loop queue runs, recv
    #: bursts): servers then register through ``serve_batch``.
    supports_batch_serve: bool

    def listen(self, port):
        """GET(port); returns the wire port F(port)."""

    def listen_reply(self, rng):
        """GET on a fresh port drawn from ``rng``; returns the pair
        ``(secret, wire port)``."""

    def listen_fresh(self, ports):
        """GET on fresh ports the caller drew; their wire ports, or None
        (nothing listened) when one collides."""

    def unlisten(self, port):
        """Withdraw a GET by its secret."""

    def unlisten_wire(self, wire_port):
        """Withdraw a GET by its wire port."""

    def serve(self, port, handler):
        """GET with ``handler(frame)``."""

    def serve_batch(self, port, handler):
        """GET with ``handler(frames)``."""

    def on_broadcast(self, handler):
        """Add a broadcast handler."""

    def poll_wire(self, wire_port):
        """Next queued frame, or None; never waits."""

    def wait_wire(self, wire_port, remaining):
        """Block on a wire port for up to ``remaining`` seconds of
        ``clock``; the frame that arrived, or None — and None is final:
        the budget is spent (the clock stands at the deadline, a socket
        blocked that long) or nothing more can arrive (a simulator that
        delivers only during put()/pump() has drained)."""

    def put(self, message, dst_machine=None):
        """PUT through the F-box."""

    def put_owned(self, message, dst_machine=None):
        """PUT, in place."""

    def put_owned_unicast_bulk(self, pairs):
        """PUT (message, machine) pairs."""

    def put_broadcast(self, message):
        """PUT to every station."""


def refill_reply_pool(pools, rng, fbox):
    """A new block of fresh reply pairs ``(G', F(G'))`` for ``rng``'s slot
    in a station's ``pools``: one pooled randomness read and one F-box
    batch instead of :data:`REPLY_BLOCK` draws and one-way calls — the
    same secrets in the same order as that many ``Port.random(rng)``.

    The pairs are *imaged, not admitted*: no sink exists for one until
    ``listen_reply`` deals it, so a frame for an undealt wire port is
    refused like any other unknown port.  The list is reversed so that
    dealing in draw order is ``pop()``.
    """
    secrets = draw_ports(rng, REPLY_BLOCK)
    pool = list(zip(secrets, fbox.one_way_batch(secrets)))
    pool.reverse()
    if len(pools) >= _REPLY_SOURCES_MAX and rng not in pools:
        pools.clear()
    pools[rng] = pool
    return pool


class _BatchSink:
    """A server GET whose handler takes a *run* of frames at once.

    Registered by ``serve_batch`` on either station.  Calling it with a
    single frame (the synchronous network's accept path) forwards a
    1-tuple, so batch servers work identically under every delivery
    discipline; the event loop and the socket pump detect the type and
    hand over whole runs.
    """

    __slots__ = ("batch",)

    def __init__(self, batch):
        self.batch = batch

    def __call__(self, frame):
        self.batch((frame,))


class Nic:
    """One station on a :class:`~repro.net.network.SimNetwork`.

    Parameters
    ----------
    network:
        The shared medium to attach to.
    fbox:
        Optionally a specific :class:`FBox` (all boxes on one network must
        share the same F for ports to interoperate).
    """

    # The Station attributes follow the network's delivery discipline,
    # fixed at its construction; these are the synchronous defaults.
    #: Deferred and DES delivery (set per instance) hand a lone listener
    #: whole queue runs, see :meth:`accept_run`.
    supports_batch_serve = False

    def __init__(self, network, fbox=None):
        self.fbox = fbox or FBox()
        self.network = network
        self.address = network.attach(self)
        #: The network's VirtualClock in DES mode, else None.
        self.clock = network.clock
        if network.loop is not None:
            self.supports_batch_serve = True
        # One sink per admitted wire port: a deque (client GET, frames
        # queue) or a callable (server GET, frames dispatch immediately).
        # A single dict keeps the admission check and delivery to one
        # lookup each on the per-frame path.
        self._sinks = {}
        # Randomness source -> undealt (G', F(G')) pairs, see listen_reply.
        self._reply_pools = {}
        self._broadcast_handlers = []
        #: Per-NIC counters (frames in/out) for experiments.
        self.sent = 0
        self.received = 0

    # ------------------------------------------------------------------
    # egress
    # ------------------------------------------------------------------

    def put(self, message, dst_machine=None):
        """PUT: transform through the F-box and transmit.

        ``dst_machine`` is used once a port has been located; ``None``
        sends a port-addressed frame that the admission filters route.
        """
        on_wire = self.fbox.transform_egress(message)
        self.sent += 1
        return self.network.send(self, on_wire, dst_machine)

    def put_owned(self, message, dst_machine=None):
        """PUT a message the caller owns outright (it was built privately
        and is never touched again): the F-box transform runs in place,
        folding away one copy.  The transformation itself is exactly
        :meth:`put`'s — there is still no untransformed path to the wire.
        """
        on_wire = self.fbox.transform_egress_owned(message)
        self.sent += 1
        return self.network.send(self, on_wire, dst_machine)

    def put_owned_bulk(self, messages, dst_machine=None):
        """PUT a batch of privately built same-destination messages.

        The egress half of a pipelined issue: every message is F-box
        transformed in place (the identical, unconditional transformation
        of :meth:`put_owned`) and the batch goes to the network in one
        :meth:`~repro.net.network.SimNetwork.send_bulk` call.  Returns
        the number of frames the network accepted.
        """
        transform = self.fbox.transform_egress_owned
        on_wire = [transform(m) for m in messages]
        self.sent += len(on_wire)
        return self.network.send_bulk(self, on_wire, dst_machine)

    def put_owned_unicast_bulk(self, pairs):
        """PUT a batch of privately built unicast (message, machine)
        pairs — a batch server's reply egress.  Each message is F-box
        transformed in place exactly as :meth:`put_owned` would."""
        transform = self.fbox.transform_egress_owned
        on_wire = [(transform(m), dst) for m, dst in pairs]
        self.sent += len(on_wire)
        return self.network.send_unicast_bulk(self, on_wire)

    def put_many(self, messages, dst_machine=None):
        """PUT a batch of messages; returns how many were accepted.

        Each message goes through the same F-box transformation as
        :meth:`put` — batching amortizes only the per-call bookkeeping,
        never the transform.
        """
        transform = self.fbox.transform_egress
        send = self.network.send
        accepted = 0
        count = 0
        for message in messages:
            count += 1
            if send(self, transform(message), dst_machine):
                accepted += 1
        self.sent += count
        return accepted

    def put_broadcast(self, message):
        """Broadcast a (transformed) frame to every station — LOCATE etc."""
        on_wire = self.fbox.transform_egress(message)
        self.sent += 1
        return self.network.broadcast(self, on_wire)

    def pump(self, budget=None):
        """Dispatch deferred deliveries on the attached network, if any.

        Stations expose this so protocol code (``trans``, ``trans_many``)
        can drive a deferred network without knowing the topology; on a
        synchronous network it is a no-op returning 0.
        """
        return self.network.pump(budget)

    # ------------------------------------------------------------------
    # ingress: GET registration
    # ------------------------------------------------------------------

    def listen(self, port):
        """GET: start admitting frames for F(port); returns that wire port.

        ``port`` is whatever the caller believes is a get-port.  The F-box
        one-ways it unconditionally, which is precisely why knowing a
        put-port P does not let anyone receive the server's traffic.

        The port is registered in the network's routing index, which
        lists exactly the ports with a ``listen``/``serve`` GET
        outstanding (registering is idempotent); :meth:`admits` is the
        wider set — every sink, a transaction's reply port included.
        """
        wire_port = self.fbox.listen_port(as_port(port))
        if wire_port not in self._sinks:
            self._sinks[wire_port] = deque()
        self.network.register_listener(self.address, wire_port)
        return wire_port

    def listen_reply(self, rng):
        """GET on a fresh port: the client's opening move of every
        transaction (§2.1).  Returns ``(G', F(G'))`` — the secret for the
        request's reply field and the wire port now admitted, with the
        queue sink :meth:`listen` would have made and nothing beyond this
        station: the reply comes by unicast, so no routing-index entry.

        The pair comes from this station's pool for ``rng``, refilled a
        block at a time (:func:`refill_reply_pool`); each is dealt once,
        so a transaction's G' is as fresh as if drawn on the spot.  A
        pair whose wire port already has a GET is skipped, never shared
        — sharing a sink would cross two transactions' replies.
        """
        pool = self._reply_pools.get(rng)
        sinks = self._sinks
        while True:
            if not pool:
                pool = refill_reply_pool(self._reply_pools, rng, self.fbox)
            pair = pool.pop()
            wire_port = pair[1]
            if wire_port not in sinks:
                break
        sinks[wire_port] = deque()
        return pair

    def listen_fresh(self, ports):
        """Batch GET on a set of fresh (just-drawn) ports.

        The ingress half of a pipelined issue: one call admits every
        reply port of a batch.  Each port is one-wayed through the F-box
        and given a queue sink, as :meth:`listen` would — and, being a
        reply port, no routing-index entry (see :meth:`listen_reply`).
        Returns the wire ports, or None if two ports collide (callers
        then fall back to issuing one at a time; with 48-bit random ports
        this is a when-the-sun-burns-out case, but silently sharing a
        sink would cross two transactions' replies).
        """
        sinks = self._sinks
        wires = self.fbox.one_way_batch(ports)
        fresh = []
        for wire_port in wires:
            if wire_port in sinks:
                for seen in fresh:
                    del sinks[seen]
                return None
            sinks[wire_port] = deque()
            fresh.append(wire_port)
        return wires

    def take_many(self, wire_ports):
        """Withdraw a batch of GETs, returning each port's queued frames.

        The collect half of a pipelined transaction batch: for every wire
        port, its sink deque (or None if it was not listened) — with the
        GETs withdrawn.  Reply ports have nothing in the routing index;
        the intersection finds any port that does in one pass.
        """
        sinks = self._sinks
        taken = [sinks.pop(w, None) for w in wire_ports]
        for served in self.network._listeners.keys() & wire_ports:
            self.network.unregister_listener(self.address, served)
        return taken

    def unlisten(self, port):
        """Withdraw a GET (by the same value passed to :meth:`listen`)."""
        self.unlisten_wire(self.fbox.listen_port(as_port(port)))

    def serve(self, port, handler):
        """GET with a request handler: frames for F(port) invoke
        ``handler(frame)`` immediately instead of queueing.

        This models a server process blocked in GET; the simulated kernel
        runs the handler synchronously on delivery.  Frames already
        queued by an earlier listen() on the same port are the server's
        backlog: they are drained into the handler here rather than
        stranded.
        """
        wire_port = self.fbox.listen_port(as_port(port))
        backlog = self._sinks.get(wire_port)
        self.network.register_listener(self.address, wire_port)
        self._sinks[wire_port] = handler
        if type(backlog) is deque:
            while backlog:
                handler(backlog.popleft())
        return wire_port

    def serve_batch(self, port, batch_handler):
        """GET with a batch request handler: the event loop delivers whole
        queue runs as ``batch_handler(frames)`` — interrupt coalescing
        for servers under heavy traffic.  On a synchronous network each
        frame arrives as a batch of one, so semantics do not fork.
        """
        return self.serve(port, _BatchSink(batch_handler))

    def on_broadcast(self, handler):
        """Add a kernel-level broadcast handler (LOCATE, boot announce...).

        Handlers run in installation order and each sees every broadcast;
        a handler simply ignores commands that are not for it.
        """
        self._broadcast_handlers.append(handler)

    # ------------------------------------------------------------------
    # called by the network
    # ------------------------------------------------------------------

    def admits(self, port):
        """Hardware admission filter: do we have a GET outstanding for it?"""
        return port in self._sinks

    def accept(self, frame):
        """Deliver one admitted frame (called only by the network)."""
        sink = self._sinks.get(frame.message.dest)
        if sink is None:
            return False
        self.received += 1
        if type(sink) is deque:
            sink.append(frame)
        else:
            sink(frame)
        return True

    def accept_run(self, dest, frames):
        """Deliver a run of same-port frames (called only by the event
        loop, which has just found this station to be the port's lone
        listener with a sink that takes whole runs — per-frame handlers
        go through :meth:`accept`).

        The batch mirror of :meth:`accept`: a queue sink takes the whole
        run in one extend, a batch sink gets it as a single call.
        """
        sink = self._sinks[dest]
        self.received += len(frames)
        if type(sink) is deque:
            sink.extend(frames)
        else:
            sink.batch(frames)

    def accept_broadcast(self, frame):
        """Deliver a broadcast frame to the kernel handlers, if any."""
        if not self._broadcast_handlers:
            return False
        self.received += 1
        for handler in list(self._broadcast_handlers):
            handler(frame)
        return True

    # ------------------------------------------------------------------
    # receive side for clients
    # ------------------------------------------------------------------

    def poll(self, port, timeout=None):
        """Dequeue the next frame admitted for GET(port), or ``None``.

        ``port`` is the same value passed to :meth:`listen` (the secret),
        not the wire port.  ``timeout`` is meaningful only on a DES
        network, where it is a *virtual* duration (see
        :meth:`poll_wire`); elsewhere it is ignored — delivery happens
        during put()/pump(), never later, so there is nothing to wait
        for.
        """
        return self.poll_wire(self.fbox.listen_port(as_port(port)), timeout)

    # ------------------------------------------------------------------
    # wire-port fast lane (used by trans, which holds the wire port that
    # listen() returned and need not re-derive F(secret) per operation)
    # ------------------------------------------------------------------

    def poll_wire(self, wire_port, timeout=None):
        """Like :meth:`poll`, keyed by the wire port listen() returned.

        On a DES network a positive ``timeout`` blocks *in virtual time*:
        the event heap is stepped (delivering frames, advancing the
        clock) until a frame lands on this port or the next arrival lies
        beyond ``clock.now + timeout`` — a timed-out wait then advances
        the clock to its deadline, so waiting costs simulated time
        exactly as the paper's blocking GET costs real time.  Re-entrant
        use (a server handler polling mid-delivery) is safe: nested
        transactions simply consume their share of virtual time deeper
        in the stack.
        """
        sink = self._sinks.get(wire_port)
        if sink and type(sink) is deque:
            return sink.popleft()
        clock = self.clock
        if clock is None or timeout is None or timeout <= 0:
            return None
        deadline = clock.now + timeout
        loop = self.network.loop
        sinks = self._sinks
        while loop.step(until=deadline):
            # Re-resolve per event: the frame may have landed here, and a
            # handler running inside step() may have changed the sink.
            sink = sinks.get(wire_port)
            if sink and type(sink) is deque:
                return sink.popleft()
        clock.advance_to(deadline)
        return None

    def wait_wire(self, wire_port, remaining):
        """Block on a wire port for up to ``remaining`` seconds of this
        station's clock.  DES: a timed :meth:`poll_wire`, which consumes
        *virtual* time — it steps the event heap until the frame arrives
        or leaves the clock at the deadline.  Otherwise delivery happens
        during put() (synchronous) or pump() (deferred), never later —
        drain whatever is still queued, and the poll's answer is then
        final."""
        if remaining <= 0:
            return None
        if self.clock is None:
            self.pump()
        return self.poll_wire(wire_port, remaining)

    def unlisten_wire(self, wire_port):
        """Like :meth:`unlisten`, keyed by the wire port listen() returned;
        only an indexed port (never a reply port) goes on to the index."""
        if (self._sinks.pop(wire_port, None) is not None
                and wire_port in self.network._listeners):
            self.network.unregister_listener(self.address, wire_port)

    def __repr__(self):
        return "Nic(address=%d, listening=%d ports)" % (
            self.address,
            len(self._sinks),
        )
