"""A real UDP transport with the same station API as the simulator.

The reproduction hint for this paper is "hashlib and sockets": everything
in the library runs over the in-process :class:`~repro.net.network.SimNetwork`
(where the threat model is explicit and deterministic), and over this
module's genuine UDP datagrams on localhost, so the RPC layer can be
exercised end to end across OS processes.

A :class:`SocketNode` mirrors the :class:`~repro.net.nic.Nic` interface —
``listen`` / ``serve`` / ``put`` / ``poll`` — with the F-box applied in
software on egress.  The "unforgeable source address" is the UDP source
address reported by ``recvfrom``; adequate on a loopback interface, and
the simulator remains the reference for security experiments.

There is one wire format.  Every datagram is a codec message that left
its sender through an F-box, or an aggregate carrier of such messages;
the pump decodes each and admits it through the sink table, and counts
anything else as garbage.  Replica membership and health checks are
ordinary transactions too (:mod:`repro.ipc.replica`).
"""

import queue
import socket
import struct
import threading
from collections import deque

from repro.core.ports import as_port
from repro.net.fbox import FBox
from repro.net.message import Message
from repro.net.nic import _BatchSink, refill_reply_pool

#: Generous datagram cap: a capability-bearing message is well under 1 KiB,
#: file transfers chunk themselves beneath this.
MAX_DATAGRAM = 60000

#: Magic prefix of an *aggregate carrier* datagram: a coalesced run of
#: same-destination frames, each 4-byte length-prefixed.  Transport-level
#: framing only — every inner frame is an ordinary, individually F-box
#: transformed message that went through the normal admission path on
#: arrival; aggregation changes how many syscalls a burst costs, never
#: what is on the wire inside them.  Cannot collide with a plain message
#: (those start with the codec magic ``b"AM"``); no other prefix is read.
_AGG_MAGIC = b"AB1"
_AGG_HEADER = len(_AGG_MAGIC)
_AGG_LENGTH = struct.Struct(">I")  # an inner frame's length prefix


class SocketNode:
    """One station on a real UDP network.

    Concurrency notes (the pump thread receives while any number of
    client threads send):

    * **Admission is one table.**  ``_sinks`` maps wire port → sink (a
      ``queue.SimpleQueue`` for a client GET, a callable or a
      ``_BatchSink`` for a server GET), as on :class:`~repro.net.nic.Nic`.
      The invariant: writers (listen/serve/unlisten) hold ``_lock``; no
      reader iterates the table; each reader (the pump's per-datagram
      lookup, ``poll_wire``, ``reply_queues``) makes exactly one
      ``dict.get`` per port, which CPython makes atomic against any
      one write: it sees the table before or after it, never between.
    * **Peers are a snapshot tuple**, rebuilt by ``connect`` so
      port-addressed sends iterate it without taking the lock.
    * **Egress may be coalesced.**  With ``buffer_egress=True``, ``put``
      appends packed datagrams to a small buffer instead of hitting the
      socket; the buffer is flushed by the pump thread each iteration
      (so server replies batch naturally), by ``poll_wire`` before it
      blocks (so a client's own request precedes its wait), at
      ``flush_every`` pending datagrams, and on ``close``.  Buffering
      changes *when* bytes leave, never *what* leaves — every datagram
      still went through the F-box transform in ``put``.
    * **A carrier is a batch.**  One pump iteration is one ``recvfrom``:
      its frames (one, or every inner frame of an ``AB1`` carrier) are
      dispatched in arrival order — a ``serve_batch`` sink gets its share
      as one handler call — and buffered egress is flushed once.
      Admission, ordering, and drop behaviour per frame are those of
      one-datagram-each receives.
    """

    # The :class:`~repro.net.nic.Station` attributes.
    #: A SocketNode always runs on the wall clock — real datagrams take
    #: real time, so its blocking polls consume wall seconds, never
    #: virtual ones.
    clock = None

    #: The pump delivers each carrier's frames as one batch, which makes
    #: batch dispatch (serve_batch + bulk reply egress) profitable on
    #: this transport.
    supports_batch_serve = True

    #: Seconds the pump blocks per receive before checking for shutdown
    #: and buffered egress.
    _POLL_INTERVAL = 0.1

    def __init__(self, fbox=None, bind_host="127.0.0.1", buffer_egress=False,
                 flush_every=32, faults=None):
        self.fbox = fbox or FBox()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind((bind_host, 0))
        self._sock.settimeout(self._POLL_INTERVAL)
        #: Optional FaultPlan; every egress datagram — plain frames and
        #: aggregate carriers alike — passes through it.  None keeps the
        #: transmit function the raw socket sendto, costing nothing.
        self.faults = faults
        if faults is not None:
            from repro.net.faults import faulty_sendto

            self._sendto = faulty_sendto(self._sock.sendto, faults)
        else:
            self._sendto = self._sock.sendto
        self.address = self._sock.getsockname()
        #: Wire port -> SimpleQueue | handler | _BatchSink (class docstring).
        self._sinks = {}
        # Randomness source -> undealt (G', F(G')) pairs, see listen_reply.
        self._reply_pools = {}
        self._peer_snapshot = ()
        self._lock = threading.Lock()
        self._closed = threading.Event()
        self.buffer_egress = buffer_egress
        self.flush_every = flush_every
        # (raw, dst | None) datagrams awaiting flush; deque append/popleft
        # are atomic, so producers and the flushing thread need no lock.
        self._egress = deque()
        self.sent = 0
        self.received = 0
        # Broadcast fallback sinks: a snapshot tuple, replaced wholesale
        # under _lock, read lock-free by the pump.
        self._broadcast_handlers = ()
        #: What the pump dropped instead of dying: exceptions out of a
        #: broadcast or server handler, and datagrams the codec
        #: refused; ``last_error`` keeps the most recent exception.
        self.handler_errors = 0
        self.garbage_dropped = 0
        self.last_error = None
        self._pump = threading.Thread(target=self._pump_loop, daemon=True)
        self._pump.start()

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------

    def connect(self, peer_address):
        """Add a peer for port-addressed sends (poor man's broadcast).

        Replaces the immutable peer snapshot so senders never take the
        lock.
        """
        with self._lock:
            if peer_address not in self._peer_snapshot:
                self._peer_snapshot += (peer_address,)

    # ------------------------------------------------------------------
    # egress
    # ------------------------------------------------------------------

    @staticmethod
    def _pack_for_wire(messages, transform):
        """The one egress serialisation: transform and pack a burst, then
        one size check before anything of it is sent.

        Every egress path goes through here so the datagram-cap policy
        cannot drift between the single, batch, and buffered variants;
        ``transform`` is the caller's choice of F-box path (copying or
        owned — the transformation itself is identical).
        """
        raws = [transform(message).pack() for message in messages]
        biggest = max(map(len, raws), default=0)
        if biggest > MAX_DATAGRAM:
            raise ValueError("message of %d bytes exceeds datagram cap" % biggest)
        return raws

    def _send_run(self, raws, dst):
        """Send a run of packed frames to one destination, coalesced.

        A lone frame goes out as a plain datagram; two or more travel in
        aggregate carriers (``_AGG_MAGIC`` + length-prefixed frames),
        chunked under :data:`MAX_DATAGRAM` — one syscall per carrier
        instead of one per frame.  On a single shared CPU this is the
        difference between pipelining amortizing the kernel crossings
        and merely reordering them.
        """
        sendto = self._sendto
        if len(raws) == 1:
            sendto(raws[0], dst)
            return
        parts = []
        size = _AGG_HEADER
        for raw in raws:
            need = 4 + len(raw)
            if _AGG_HEADER + need > MAX_DATAGRAM:
                # Too big to ride a carrier at all (the frame itself is
                # within the cap, but not with carrier overhead): flush
                # what is pending to keep ordering, then send it plain.
                if parts:
                    sendto(_AGG_MAGIC + b"".join(parts), dst)
                    parts = []
                    size = _AGG_HEADER
                sendto(raw, dst)
                continue
            if parts and size + need > MAX_DATAGRAM:
                sendto(_AGG_MAGIC + b"".join(parts), dst)
                parts = []
                size = _AGG_HEADER
            parts += (_AGG_LENGTH.pack(len(raw)), raw)
            size += need
        if parts:
            sendto(_AGG_MAGIC + b"".join(parts), dst)

    def _targets(self, dst):
        """Unicast, or every connected peer — the loopback stand-in for
        a broadcast segment, whose admission filters decide."""
        return (dst,) if dst is not None else self._peer_snapshot

    def _transmit(self, raws, dst):
        """Send a run of packed datagrams to ``dst`` or, without one, to
        every connected peer; true when anyone was offered them."""
        targets = self._targets(dst)
        for target in targets:
            self._send_run(raws, target)
        return bool(targets)

    def _transmit_runs(self, pairs):
        """Transmit packed ``(raw, dst)`` pairs in order.  Consecutive
        same-destination datagrams share aggregate carriers (runs are
        consecutive, so ordering per destination is untouched): a
        server's burst of replies to one pipelined client is one
        syscall."""
        run = []
        run_dst = None
        for raw, dst in pairs:
            if run and dst != run_dst:
                self._transmit(run, run_dst)
                run = []
            run_dst = dst
            run.append(raw)
        if run:
            self._transmit(run, run_dst)

    def put(self, message, dst_machine=None):
        """Transform through the F-box and transmit as a UDP datagram.

        With ``dst_machine`` (a ``(host, port)`` pair) the frame is
        unicast; otherwise it is offered to every connected peer.
        """
        raw, = self._pack_for_wire((message,), self.fbox.transform_egress)
        self.sent += 1
        if not self.buffer_egress:
            return self._transmit((raw,), dst_machine)
        self._egress.append((raw, dst_machine))
        if len(self._egress) >= self.flush_every:
            self.flush_egress()
        return bool(self._targets(dst_machine))

    # Same signature as Nic.put_owned; serialisation makes the copy
    # question moot here, so the plain path is reused.
    put_owned = put

    def put_broadcast(self, message):
        """Offer a frame to every connected peer — the loopback stand-in
        for a broadcast segment (station-API parity with
        :meth:`Nic.put_broadcast`; LOCATE rides this)."""
        return self.put(message, None)

    def put_owned_bulk(self, messages, dst_machine=None):
        """Transform a batch of privately built messages in place and
        transmit — the egress half of a pipelined issue over sockets.

        Each message gets the identical, unconditional F-box
        transformation of :meth:`put_owned`; the burst then leaves as
        aggregate carriers (see :meth:`_send_run`), so a 16-in-flight
        issue costs one or two ``sendto`` calls instead of sixteen.
        """
        if self._egress:
            # Same-sender ordering: earlier buffered datagrams first.
            self.flush_egress()
        raws = self._pack_for_wire(messages, self.fbox.transform_egress_owned)
        self.sent += len(raws)
        return len(raws) if self._transmit(raws, dst_machine) else 0

    def put_owned_unicast_bulk(self, pairs):
        """Transmit a batch of privately built unicast (message, machine)
        pairs — a batch server's reply egress.  Each message is F-box
        transformed in place exactly as :meth:`put_owned` would."""
        if self._egress:
            self.flush_egress()
        raws = self._pack_for_wire([message for message, _ in pairs],
                                   self.fbox.transform_egress_owned)
        # Counted before they leave, as in put: whoever holds a reply
        # and then reads ``sent`` sees that reply counted.
        self.sent += len(raws)
        self._transmit_runs(zip(raws, [dst for _, dst in pairs]))
        return len(raws)

    def flush_egress(self):
        """Send every buffered datagram; returns how many went out."""
        egress = self._egress
        drained = []
        while True:
            try:
                drained.append(egress.popleft())
            except IndexError:
                break
        self._transmit_runs(drained)
        return len(drained)

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------

    def listen(self, port):
        wire_port = self.fbox.listen_port(as_port(port))
        with self._lock:
            if wire_port not in self._sinks:
                # SimpleQueue: C-implemented, a fraction of queue.Queue's
                # construction and handoff cost — and a GET sink needs
                # none of Queue's task tracking.
                self._sinks[wire_port] = queue.SimpleQueue()
        return wire_port

    def listen_reply(self, rng):
        """GET on a fresh port, the socket counterpart of
        :meth:`Nic.listen_reply`: one pair dealt from ``rng``'s pool
        (refilled a block at a time, imaged but not admitted until
        dealt) under one lock hold.  Returns ``(G', F(G'))``."""
        with self._lock:
            pool = self._reply_pools.get(rng)
            sinks = self._sinks
            while True:
                if not pool:
                    pool = refill_reply_pool(self._reply_pools, rng, self.fbox)
                pair = pool.pop()
                if pair[1] not in sinks:
                    break
            sinks[pair[1]] = queue.SimpleQueue()
        return pair

    def listen_fresh(self, ports):
        """Batch GET on a set of fresh (just-drawn) reply ports.

        The socket counterpart of :meth:`Nic.listen_fresh`: every port is
        one-wayed in one F-box batch and admitted under a single lock
        acquisition.  Returns the wire ports, or None when any wire port
        collides with an existing GET or another port of the batch
        (callers fall back to issuing one at a time — sharing a sink
        would cross two transactions' replies).
        """
        wires = self.fbox.one_way_batch(ports)
        with self._lock:
            sinks = self._sinks
            fresh = set(wires)
            if len(fresh) != len(wires) or not sinks.keys().isdisjoint(fresh):
                return None
            for wire_port in wires:
                sinks[wire_port] = queue.SimpleQueue()
        return wires

    def reply_queues(self, wire_ports):
        """The live queue sinks for a batch of wire ports (None for one
        with no GET), taken once for a whole ``trans_many`` collect.  The
        GETs stay admitted — withdraw with :meth:`unlisten_wire_many`
        only after the replies are in, so the pump never drops an
        in-flight reply.  Our own buffered requests leave first, as
        before any blocking :meth:`poll_wire`."""
        if self._egress:
            self.flush_egress()
        sinks = self._sinks
        return [sinks.get(wire_port) for wire_port in wire_ports]

    def unlisten_wire_many(self, wire_ports):
        """Withdraw a batch of GETs under one lock hold."""
        with self._lock:
            for wire_port in wire_ports:
                self._sinks.pop(wire_port, None)

    def unlisten(self, port):
        self.unlisten_wire(self.fbox.listen_port(as_port(port)))

    def serve(self, port, handler):
        """Register a request handler; it runs on the pump thread.

        As with :meth:`Nic.serve`, frames queued by an earlier listen()
        on the same port are the server's backlog and are drained into
        the handler (outside the lock, mirroring pump-thread dispatch).
        """
        wire_port = self.fbox.listen_port(as_port(port))
        with self._lock:
            backlog = self._sinks.get(wire_port)
            self._sinks[wire_port] = handler
        while type(backlog) is queue.SimpleQueue:
            try:
                frame = backlog.get_nowait()
            except queue.Empty:
                break
            handler(frame)
        return wire_port

    def serve_batch(self, port, batch_handler):
        """Register a *batch* request handler; it runs on the pump thread.

        Each received carrier's frames for this port arrive as one
        ``batch_handler(frames)`` call (arrival order preserved), so a
        pipelined client's 16 requests cost one dispatch preamble and —
        with :meth:`put_owned_unicast_bulk` — one reply burst.  Backlog
        queued by an earlier listen() arrives frame by frame, each a
        batch of one, as on :meth:`Nic.serve_batch`.
        """
        return self.serve(port, _BatchSink(batch_handler))

    def on_broadcast(self, handler):
        """Register ``handler(frame)`` for frames no admission sink
        claims.  On a real segment a broadcast is just a datagram every
        station receives; on loopback the closest analogue is "arrived
        but addressed to no GET here" — which is exactly what a LOCATE
        probe looks like to a responder.  Handlers filter by command."""
        with self._lock:
            self._broadcast_handlers = self._broadcast_handlers + (handler,)
        return handler

    def poll(self, port, timeout=None):
        """Next admitted frame for GET(port), blocking up to ``timeout``."""
        wire_port = self.fbox.listen_port(as_port(port))
        return self.poll_wire(wire_port, timeout)

    def poll_wire(self, wire_port, timeout=None):
        """Like :meth:`poll`, keyed by the wire port listen() returned."""
        sink = self._sinks.get(wire_port)
        if type(sink) is not queue.SimpleQueue:
            return None
        if self._egress:
            # Our own buffered requests must reach the wire before we
            # wait for their replies.
            self.flush_egress()
        try:
            return sink.get(
                block=timeout is not None and timeout > 0, timeout=timeout
            )
        except queue.Empty:
            return None

    def wait_wire(self, wire_port, remaining):
        """Block on a wire port for up to ``remaining`` wall seconds
        (none left: whatever is already queued)."""
        return self.poll_wire(wire_port, remaining)

    def unlisten_wire(self, wire_port):
        """Like :meth:`unlisten`, keyed by the wire port listen() returned."""
        with self._lock:
            self._sinks.pop(wire_port, None)

    # ------------------------------------------------------------------
    # pump thread
    # ------------------------------------------------------------------

    def _pump_loop(self):
        from repro.net.network import Frame

        new = tuple.__new__  # a Frame without its namedtuple frame
        QueueType = queue.SimpleQueue
        sock = self._sock
        unpack = Message.unpack
        length_at = _AGG_LENGTH.unpack_from
        while not self._closed.is_set():
            try:
                datagram, src = sock.recvfrom(MAX_DATAGRAM + 1)
            except socket.timeout:
                # Idle tick: anything a handler buffered since the last
                # datagram still has to leave the machine.
                if self._egress:
                    self.flush_egress()
                continue
            except OSError:
                break
            # Split an aggregate carrier back into individual frames; each
            # inner frame then takes the identical unpack/admission path
            # a plain datagram takes.  A truncated carrier tail is
            # dropped like any other garbage datagram.
            if datagram[:_AGG_HEADER] != _AGG_MAGIC:
                expanded = [datagram]
            else:
                expanded = []
                pos = _AGG_HEADER
                end = len(datagram)
                while pos + 4 <= end:
                    (flen,) = length_at(datagram, pos)
                    pos += 4
                    if pos + flen > end:
                        break
                    expanded.append(datagram[pos:pos + flen])
                    pos += flen
            admitted = 0
            batch_runs = None
            faults = self.faults
            for raw in expanded:
                if (faults is not None and faults.has_partitions
                        and faults.link_severed(src, None)):
                    # Ingress half of a severed link: the plan only sees
                    # this node's egress, so cuts *toward* us are
                    # enforced here, before anything is decoded.
                    faults.note_partition_drop(src, None)
                    continue
                try:
                    message = unpack(raw)
                except Exception as exc:
                    # Garbage datagrams are dropped, like hardware.
                    self.garbage_dropped += 1
                    self.last_error = exc
                    continue
                # One lookup decides admission and delivery — made per
                # datagram, so a listen() a handler just made admits
                # later frames of the same carrier.
                sink = self._sinks.get(message.dest)
                if sink is None:
                    # Frames for ports nobody GETs here go to the
                    # broadcast fallback (a LOCATE probe is exactly such
                    # a frame); with no handlers they drop as before.
                    handlers = self._broadcast_handlers
                    if handlers:
                        frame = new(Frame, (src, None, message))
                        for handler in handlers:
                            try:
                                handler(frame)
                            except Exception as exc:
                                self._handler_failed(exc)
                    continue
                admitted += 1
                frame = new(Frame, (src, None, message))
                kind = type(sink)
                if kind is QueueType:
                    sink.put(frame)
                elif kind is _BatchSink:
                    # Coalesce this carrier's frames into one handler call.
                    if batch_runs is None:
                        batch_runs = {}
                    run = batch_runs.get(sink)
                    if run is None:
                        batch_runs[sink] = [frame]
                    else:
                        run.append(frame)
                else:
                    try:
                        sink(frame)
                    except Exception as exc:
                        # A crashing server must not kill the transport.
                        self._handler_failed(exc)
            if batch_runs is not None:
                for sink, frames in batch_runs.items():
                    try:
                        sink.batch(frames)
                    except Exception as exc:
                        self._handler_failed(exc)
            self.received += admitted
            # Replies the handlers buffered go out with this iteration.
            if self._egress:
                self.flush_egress()

    def _handler_failed(self, exc):
        self.handler_errors += 1
        self.last_error = exc

    def close(self):
        self._closed.set()
        self._pump.join(timeout=2.0)
        if self._egress:
            try:
                self.flush_egress()
            except OSError:
                pass  # socket may already be unusable; buffered frames drop
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __repr__(self):
        return "SocketNode(address=%s:%d)" % self.address
