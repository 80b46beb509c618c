"""Port location: broadcast LOCATE and the (port, machine) cache.

§2.2: "The associative addressing can be simulated in software ... by
having each one maintain a cache of (port, machine-number) pairs.  If a
port is not in the cache, it can be found by broadcasting a LOCATE
message."  The efficient generalisation is Mullender–Vitányi distributed
match-making; on a single broadcast segment the protocol below is the
exact mechanism the paper sketches.

The cache is what makes the economics work: a hit costs zero extra
frames, a miss costs one broadcast plus one HERE unicast.  The RPC
benchmarks count both.
"""

import threading
import time

from repro.core.ports import Port, PrivatePort, as_port
from repro.crypto.randomsrc import RandomSource
from repro.errors import PortNotLocated
from repro.ipc import stdops
from repro.net.message import Message


def install_locate_responder(nic, answer=None):
    """Make a station answer LOCATE broadcasts.

    ``answer(port)`` returns the HERE body, or None to stay silent.  The
    default is the kernel's "I am here" — the bare port, for any port in
    the NIC's admission table, not from any user process; a replica pool
    answers with its whole packed membership instead (and falls silent
    when its server stops: the broadcast hook cannot be unregistered).
    """
    if answer is None:
        def answer(target):
            return target.to_bytes() if nic.admits(target) else None

    def responder(frame):
        message = frame.message
        if message.command != stdops.LOCATE:
            return
        try:
            target = Port.from_bytes(message.data)
        except ValueError:
            return
        data = answer(target)
        if data is None:
            return
        here = Message(
            dest=message.reply,
            command=stdops.HERE,
            data=data,
            is_reply=True,
        )
        nic.put(here, dst_machine=frame.src)

    nic.on_broadcast(responder)
    return responder


class LocationCache:
    """The (port, machine) map: one dict, read without a lock.

    The locate cache is read-mostly: every transaction may consult it,
    while writes happen only on a LOCATE miss (one broadcast round trip
    away) and invalidations only when a server crashes or migrates.
    :meth:`get` is therefore one lock-free dict probe — safe because the
    dict is only ever mutated under the lock the writers share and
    CPython dict reads are atomic.

    **Invalidation epoch.**  A locate is a broadcast round trip; its
    ``put`` can land long after the HERE frame was sent.  If a crash is
    detected in that window, a plain put would *resurrect* the mapping
    the invalidation just purged — the client then re-sends to a dead
    machine until someone notices again.  Every :meth:`invalidate` /
    :meth:`invalidate_member`, of any port, therefore bumps
    :attr:`epoch`; a caller snapshots it before broadcasting and passes
    it to :meth:`put`, which discards the write (returning False) when
    anything has been invalidated since — an invalidation of a
    *different* port costs the racing locate one uncached answer, never
    a wrong one.  Values may be a single machine address or a replica
    set (any object with an ``is_replica_set`` attribute, see
    :class:`repro.ipc.replica.ReplicaSet`).
    """

    def __init__(self):
        self._machines = {}
        self._lock = threading.Lock()
        #: Invalidations so far.  Mutated only under the lock; read
        #: lock-free (int loads are atomic).  Snapshot it *before*
        #: starting a locate and hand it to :meth:`put`.
        self.epoch = 0

    def get(self, port):
        """The cached machine for ``port``, or None.  Lock-free."""
        return self._machines.get(port)

    def put(self, port, machine, epoch=None):
        """Install a mapping; with ``epoch``, only if nothing has been
        invalidated since that snapshot was taken.  Returns True when
        the mapping was stored."""
        with self._lock:
            if epoch is not None and epoch != self.epoch:
                return False
            self._machines[port] = machine
        return True

    def invalidate(self, port):
        """Drop one mapping and advance the epoch, so in-flight locates
        started before this point cannot resurrect the mapping."""
        with self._lock:
            self._machines.pop(port, None)
            self.epoch += 1

    def invalidate_member(self, port, machine):
        """Forget one *replica* of a cached replica set, keeping the
        survivors — failover should not blind the client to the replicas
        that are still answering.  A single-machine mapping equal to
        ``machine`` is dropped whole.  Advances the epoch either way
        (the set shape changed; a slow in-flight locate may carry the
        dead member).  Returns True when anything changed."""
        with self._lock:
            value = self._machines.get(port)
            if value is None:
                return False
            if getattr(value, "is_replica_set", False):
                if machine not in value:
                    return False
                survivors = value.without(machine)
                if len(survivors):
                    self._machines[port] = survivors
                else:
                    del self._machines[port]
            elif value == machine:
                del self._machines[port]
            else:
                return False
            self.epoch += 1
        return True


class Locator:
    """Resolve put-ports to machine addresses, through a LocationCache."""

    def __init__(self, node, rng=None):
        self.node = node
        self.rng = rng or RandomSource()
        self.cache = LocationCache()
        #: Experiment counters, bumped with no lock — the hit path stays
        #: as lock-free as the cache read it follows; two locates racing
        #: can lose an increment (best-effort accounting).
        self.hits = 0
        self.misses = 0

    def locate(self, port, timeout=1.0, retries=2):
        """Return the machine address serving ``port``.

        A cache miss broadcasts LOCATE up to ``1 + retries`` times under
        the single ``timeout`` budget: the first wait is the budget's
        smallest power-of-two fraction, each rebroadcast doubles it, and
        the final wait runs to the deadline itself — so an unanswered
        locate consumes exactly ``timeout`` (virtual seconds on a DES
        station, wall seconds over sockets, and no time at all on the
        pump-driven simulators, where a dry pump settles each round
        immediately).  A lost LOCATE or HERE frame on a faulty wire is
        thus survived by rebroadcast instead of surfacing as
        :class:`PortNotLocated`.

        Raises :class:`PortNotLocated` when no machine answers any
        broadcast within ``timeout``.
        """
        port = port if type(port) is Port else as_port(port)
        cached = self.cache.get(port)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        # Snapshot the invalidation epoch *before* broadcasting: if a
        # crash is detected while the round trip is in flight, the
        # answer must not resurrect the purged mapping.
        epoch = self.cache.epoch
        reply_private = PrivatePort.generate(self.rng)
        # The waits below go through the station's ``wait_wire`` — the
        # one wait discipline rpc uses too (a SocketNode blocks in wall
        # time; a DES-mode Nic consumes *virtual* time).
        wire_reply = self.node.listen(reply_private)
        clock = self.node.clock
        read_clock = time.monotonic if clock is None else lambda: clock.now
        try:
            probe = Message(
                command=stdops.LOCATE,
                reply=as_port(reply_private),
                data=port.to_bytes(),
            )
            deadline = read_clock() + timeout
            wait = timeout / (2 ** max(retries, 0))
            for attempt in range(retries + 1):
                self.node.put_broadcast(probe)
                frame = self.node.poll_wire(wire_reply)
                if frame is None:
                    if attempt == retries:
                        until = deadline
                    else:
                        until = min(read_clock() + wait, deadline)
                    remaining = until - read_clock()
                    frame = self.node.wait_wire(wire_reply, remaining)
                if frame is not None:
                    located = self._parse_here(port, frame)
                    if located is None:  # malformed answer; keep waiting
                        wait *= 2
                        continue
                    # A rejected put means an invalidation raced us; the
                    # answer itself is still the freshest thing we have
                    # for *this* call, it just must not repopulate the
                    # cache (it may predate the detected crash).
                    self.cache.put(port, located, epoch=epoch)
                    return located
                wait *= 2
                if read_clock() >= deadline and attempt < retries:
                    break
            raise PortNotLocated("no machine answered LOCATE for %r" % port)
        finally:
            self.node.unlisten_wire(wire_reply)

    def _parse_here(self, port, frame):
        """Decode a HERE answer: the legacy 6-byte form names the
        answering machine itself; the extended form carries a packed
        replica set (member count + members) for the logical port."""
        data = frame.message.data
        if len(data) == len(port.to_bytes()):
            return frame.src  # legacy single-machine HERE
        from repro.ipc.replica import unpack_here_payload

        try:
            answered_port, replicas = unpack_here_payload(data)
        except ValueError:
            return None
        if answered_port != port:
            return None
        return replicas

    def invalidate(self, port):
        """Forget a cached location (server crashed or migrated)."""
        self.cache.invalidate(as_port(port))

    def invalidate_member(self, port, machine):
        """Forget one dead replica of a cached replica set, keeping the
        members that are still answering."""
        return self.cache.invalidate_member(as_port(port), machine)
