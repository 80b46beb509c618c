"""Replicated services: one logical put-port, N full server processes.

The paper's services are *logical* entities named by a sparse-capability
port — nothing in §2 ties a port to one machine.  This module makes the
binding plural end to end:

* :class:`ReplicaSet` — the value a locate now resolves to: an ordered
  pool of machine addresses plus a *spread policy* (round-robin, or a
  rendezvous hash on the object number so every client computes the same
  per-object home replica without coordination).
* :class:`ReplicaRegistry` — the membership side: replicas join/leave a
  port's pool, and the pool's LOCATE responder answers broadcasts with
  the whole membership (wire-compatible with the legacy single-machine
  HERE).
* :class:`ReplicaObjectServer` — a full :class:`ObjectServer` data plane
  that additionally *fans out* every revocation (STD_REFRESH,
  STD_DESTROY, aging) to its peer replicas over a signature-
  authenticated control channel, so a capability revoked anywhere is
  rejected everywhere — including each replica's §2.4 caches, which are
  purged through the same ``on_revocation`` hook a local revocation
  fires.  The fan-out is at-least-once (:class:`RetryPolicy`) and the
  application side (:meth:`ObjectTable.apply_refresh` /
  :meth:`~ObjectTable.apply_destroy`) is generation-guarded and
  idempotent, so duplicates and reordering are harmless.
* :class:`ReplicatedObjectServer` — the pool: N replica servers sharing
  one get-port, signature, scheme and seeded rows.  *Where* they run is
  an argument, not a second class: given a ``SimNetwork`` the members
  are stations on it in this process (deterministic; this is where the
  fault-injection tests run), given none they are forked OS processes
  over loopback UDP, each with a *data* station serving the logical
  port and a *control* station for outbound fan-out (a server handler
  runs on its station's pump thread, so a blocking peer transaction
  must leave through a second station or it would deadlock waiting on
  its own pump), registering with the pool's arbiter station over the
  socket control lane (join/leave/health).

Failover contract (the part clients rely on): ``trans`` against a
ReplicaSet tries candidates in policy order and fails over on
RPCTimeout, telling the locator to forget *only* the dead member.  Each
replica runs its own PR 6 ReplyCache, so a retry that lands on the
replica that already executed replays the cached reply — at-least-once
across the pool, never double-executed on any one replica.
"""

import hashlib
import itertools
import json
import threading
import time

from repro.core.ports import PORT_BYTES, Port, PrivatePort, as_port
from repro.core.registry import ObjectEntry, ObjectTable
from repro.core.schemes import XorOneWayScheme
from repro.crypto.randomsrc import RandomSource
from repro.errors import PortNotLocated, RPCTimeout, SecurityError
from repro.ipc import stdops
from repro.ipc.locate import install_locate_responder
from repro.ipc.rpc import RetryPolicy, trans
from repro.ipc.server import ObjectServer, command
from repro.net.message import Message
from repro.net.nic import Nic
from repro.util.record import Reader, pack_secret, unpack_secret

#: Spread policies a :class:`ReplicaSet` understands.
ROUND_ROBIN = "round_robin"
RENDEZVOUS = "rendezvous"

_POLICY_CODES = {ROUND_ROBIN: 0, RENDEZVOUS: 1}
_POLICY_NAMES = {code: name for name, code in _POLICY_CODES.items()}


# ----------------------------------------------------------------------
# wire records (read through repro.util.record.Reader: every framing
# defect is a ValueError, which each receiver answers by ignoring)
# ----------------------------------------------------------------------
#
# Machines are ints on the simulators and (host, udp_port) pairs over
# sockets; HERE answers and membership messages need both on the wire.
# Tagged encoding: 0x01 + u64 for ints, 0x02 + len + host + u16 port.


def pack_machine(machine):
    if isinstance(machine, int):
        if machine < 0:
            raise ValueError("machine numbers are non-negative")
        return b"\x01" + machine.to_bytes(8, "big")
    host, port = machine
    raw = host.encode("utf-8")
    if len(raw) > 255:
        raise ValueError("host name too long to encode")
    return b"\x02" + bytes((len(raw),)) + raw + int(port).to_bytes(2, "big")


def read_machine(reader):
    tag = reader.u8()
    if tag == 0x01:
        return reader.uint(8)
    if tag == 0x02:
        host = bytes(reader.take(reader.u8())).decode("utf-8")
        return host, reader.uint(2)
    raise ValueError("unknown machine tag %d" % tag)


def pack_here_payload(port, replicas):
    """The extended HERE body: port, policy, member count, members.

    Deliberately longer than :data:`PORT_BYTES` even for one member, so
    :class:`~repro.ipc.locate.Locator` can tell it from the legacy
    single-machine form by length alone.
    """
    members = tuple(replicas)
    if len(members) > 255:
        raise ValueError("replica set too large to encode")
    head = bytes((_POLICY_CODES[replicas.policy], len(members)))
    return port.to_bytes() + head + b"".join(map(pack_machine, members))


def unpack_here_payload(data):
    """Inverse of :func:`pack_here_payload`; raises ValueError on any
    framing defect (the locator then ignores the answer)."""
    reader = Reader(data)
    port = Port.from_bytes(reader.take(PORT_BYTES))
    code = reader.u8()
    if code not in _POLICY_NAMES:
        raise ValueError("unknown spread policy code %d" % code)
    members = [read_machine(reader) for _ in range(reader.u8())]
    reader.end()
    return port, ReplicaSet(members, policy=_POLICY_NAMES[code])


def pack_membership(port, machine):
    """JOIN/LEAVE control payload: which machine serves which port."""
    return port.to_bytes() + pack_machine(machine)


def unpack_membership(payload):
    reader = Reader(payload)
    port = Port.from_bytes(reader.take(PORT_BYTES))
    machine = read_machine(reader)
    reader.end()
    return port, machine


def pack_revocation(number, generation, secret=None):
    """The one fan-out record: which object, at which generation, and
    the new secret (an int for the check-field schemes, raw bytes for
    encrypted rights) when it was refreshed — none when it was destroyed."""
    head = number.to_bytes(4, "big") + generation.to_bytes(4, "big")
    return head if secret is None else head + pack_secret(secret)


def unpack_revocation(data):
    reader = Reader(data)
    number, generation = reader.uint(4), reader.uint(4)
    secret = unpack_secret(reader) if reader.pos < len(data) else None
    reader.end()
    return number, generation, secret


# ----------------------------------------------------------------------
# the replica set
# ----------------------------------------------------------------------


def _rendezvous_weight(member, key):
    """Highest-random-weight score for (member, key).

    Uses a real hash, never Python's ``hash()``: per-process hash
    randomization would give every client process a different per-object
    home replica, which is exactly the affinity the policy exists to
    provide.  ``repr`` of an int or a (host, port) pair is stable across
    processes and Python versions.
    """
    digest = hashlib.blake2b(
        repr(member).encode("utf-8") + b"|" + repr(key).encode("utf-8"),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "big")


class ReplicaSet:
    """An ordered pool of machines serving one logical port.

    Immutable (``without`` returns a new set) except for the round-robin
    cursor, whose ``next()`` is atomic under the GIL — many client
    threads may share one cached ReplicaSet.  An *empty* set is legal
    (it is what member-wise invalidation can leave behind) and simply
    selects nothing.
    """

    #: Duck-typing marker: rpc/locate test this attribute instead of
    #: importing the class, keeping the layering acyclic.
    is_replica_set = True

    __slots__ = ("members", "policy", "_cursor")

    def __init__(self, members, policy=ROUND_ROBIN):
        if policy not in _POLICY_CODES:
            raise ValueError("unknown spread policy %r" % (policy,))
        self.members = tuple(members)
        self.policy = policy
        self._cursor = itertools.count()

    def select(self, key=None):
        """Candidates in preference order for one transaction.

        ``rendezvous`` with a key ranks members by highest random
        weight — every process computes the same order, so per-object
        affinity survives across clients, and the runner-up list doubles
        as the failover order.  ``round_robin`` (or a keyless rendezvous
        lookup) rotates the start point per call.
        """
        members = self.members
        if not members:
            return []
        if self.policy == RENDEZVOUS and key is not None:
            return sorted(
                members,
                key=lambda m: _rendezvous_weight(m, key),
                reverse=True,
            )
        start = next(self._cursor) % len(members)
        return list(members[start:]) + list(members[:start])

    def without(self, machine):
        """A new set minus one (dead) member; same policy."""
        return ReplicaSet(
            tuple(m for m in self.members if m != machine), policy=self.policy
        )

    def __contains__(self, machine):
        return machine in self.members

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        if not isinstance(other, ReplicaSet):
            return NotImplemented
        return self.members == other.members and self.policy == other.policy

    def __repr__(self):
        return "ReplicaSet(%r, policy=%r)" % (list(self.members), self.policy)


# ----------------------------------------------------------------------
# membership
# ----------------------------------------------------------------------


class ReplicaRegistry:
    """Thread-safe port → replica membership, for locate responders.

    Members keep join order (that order *is* the round-robin sequence
    every client sees in HERE answers).  ``replica_set`` snapshots are
    fresh objects, so a client mutating nothing can cache them safely.
    """

    def __init__(self, policy=ROUND_ROBIN):
        if policy not in _POLICY_CODES:
            raise ValueError("unknown spread policy %r" % (policy,))
        self.default_policy = policy
        self._lock = threading.Lock()
        # port -> {machine: suspected}, in join order.  Suspected means
        # unreachable (a partition symptom, NOT a crash): suspicion is
        # advisory — the member keeps its membership (and its generation
        # state) and is merely steered around until unsuspected or
        # re-joined.
        self._members = {}
        self._policies = {}  # port -> policy override

    def join(self, port, machine, policy=None):
        port = as_port(port)
        with self._lock:
            # A (re)join is proof of reachability, and keeps its place.
            self._members.setdefault(port, {})[machine] = False
            if policy is not None:
                self._policies[port] = policy
        return machine

    def leave(self, port, machine):
        port = as_port(port)
        with self._lock:
            members = self._members.get(port, ())
            if machine not in members:
                return False
            del members[machine]
            if not members:
                del self._members[port]
        return True

    def suspect(self, port, machine):
        """Mark a *member* as unreachable-but-not-evicted.  Unknown
        machines are ignored (suspicion cannot invent members)."""
        with self._lock:
            members = self._members.get(as_port(port), ())
            if machine not in members:
                return False
            members[machine] = True
        return True

    def unsuspect(self, port, machine):
        """Clear one suspicion (the member answered again)."""
        with self._lock:
            members = self._members.get(as_port(port), {})
            if not members.get(machine):
                return False
            members[machine] = False
        return True

    def suspected(self, port):
        """The currently-suspected members of ``port`` (a fresh tuple,
        in join order)."""
        with self._lock:
            members = self._members.get(as_port(port), {})
            return tuple(m for m, suspect in members.items() if suspect)

    def members(self, port):
        with self._lock:
            return tuple(self._members.get(as_port(port), ()))

    def replica_set(self, port):
        """A fresh :class:`ReplicaSet` for ``port``, or None.

        Suspected members are steered around — omitted from the set —
        *unless* that would leave it empty: suspicion is advisory, and
        an all-suspected pool must still be tried (the suspicion may be
        our side of the partition, not theirs)."""
        port = as_port(port)
        with self._lock:
            members = self._members.get(port)
            if not members:
                return None
            trusted = tuple(m for m, suspect in members.items() if not suspect)
            return ReplicaSet(
                trusted or tuple(members),
                policy=self._policies.get(port, self.default_policy),
            )

    def ports(self):
        with self._lock:
            return tuple(self._members)

    def __len__(self):
        with self._lock:
            return len(self._members)


def install_membership_handler(node, registry):
    """Wire a station's control lane (JOIN/LEAVE datagrams) into a
    registry — the arbiter side of replica registration over sockets."""
    from repro.net.sockets import CTL_JOIN, CTL_LEAVE

    def handler(kind, payload, _src):
        if kind != CTL_JOIN and kind != CTL_LEAVE:
            return
        try:
            port, machine = unpack_membership(payload)
        except ValueError:
            return
        if kind == CTL_JOIN:
            registry.join(port, machine)
        else:
            registry.leave(port, machine)

    node.on_control(handler)
    return handler


def probe_liveness(node, dst, timeout=1.0, token=None):
    """One control-lane PING round trip; True when the pong arrives.

    The pong is answered by the *station* (its pump), not by any server
    — this reports "the OS process and its pump are alive", the cheapest
    health signal the pool's arbiter can ask for.
    """
    import os

    from repro.net.sockets import CTL_PING, CTL_PONG

    if token is None:
        token = os.urandom(8)
    event = threading.Event()

    def handler(kind, payload, _src):
        if kind == CTL_PONG and payload == token:
            event.set()

    node.on_control(handler)
    try:
        node.send_control(CTL_PING, token, dst)
        return event.wait(timeout)
    finally:
        node.off_control(handler)


# ----------------------------------------------------------------------
# the replica-aware server
# ----------------------------------------------------------------------


class ReplicaObjectServer(ObjectServer):
    """A full ObjectServer that fans revocations out to its peers.

    ``peers`` are machine addresses of the sibling replicas (same
    get-port, same signature secret).  ``control_node`` is the station
    used for *outbound* peer transactions; it defaults to the data
    station, which is correct on the synchronous simulator (nested
    delivery) but must be a second station over sockets — a handler runs
    on the data station's pump thread, and a blocking transaction from
    there would wait on the very pump it is occupying.

    Control messages authenticate by signature image: replicas share the
    service's signature secret S, the F-box one-ways it on egress, and
    the receiving handler compares against the published F(S).  Only an
    S-holder can produce that image through the F-box (§2.2).
    """

    service_name = "replica object server"

    def __init__(self, node, peers=(), control_node=None, fanout_retry=None,
                 fanout_timeout=2.0, **kwargs):
        kwargs.setdefault("dedup", True)
        super().__init__(node, **kwargs)
        self.peers = list(peers)
        self.control_node = control_node if control_node is not None else node
        self.fanout_retry = (
            fanout_retry if fanout_retry is not None
            else RetryPolicy(attempts=3, rto=0.05, cap=0.4, seed=0)
        )
        self.fanout_timeout = fanout_timeout
        #: F(S): what a peer's control message must carry to be obeyed.
        self.control_image = self.signature.public
        #: Fan-out bookkeeping: successful peer applications, and
        #: (machine, op, number) triples that exhausted their retries.
        self.fanout_sent = 0
        self.fanout_failures = []
        # (peer, record) for each of those same failures, kept until
        # reconcile() re-delivers them — the repair queue a healed
        # partition is drained through.
        self._fanout_pending = []

    # -- outbound fan-out ----------------------------------------------

    def _fan_out(self, op_name, entry, secret=None):
        """Tell every peer to apply one revocation of ``entry``'s object
        (``secret`` for a refresh, none for a destruction); at-least-once
        per peer, failures recorded rather than raised — the *local*
        revocation has already happened and must be reported to the
        client regardless (the capability is dead here; a lagging peer
        is a liveness problem, not a correctness rollback)."""
        record = pack_revocation(entry.number, entry.generation, secret)
        for peer in self.peers:
            if self._send_control(peer, record):
                self.fanout_sent += 1
            else:
                self.fanout_failures.append((peer, op_name, entry.number))
                self._fanout_pending.append((peer, record))

    def _send_control(self, peer, record):
        """One CTL_APPLY transaction; True only when the peer *obeyed* —
        an error reply (its handler raised, or it refused our signature)
        is as much a failed delivery as silence."""
        try:
            reply = trans(
                self.control_node,
                self.put_port,
                Message(command=stdops.CTL_APPLY, data=record),
                rng=self.rng,
                timeout=self.fanout_timeout,
                expect_signature=self.control_image,
                dst_machine=peer,
                signature=self.signature,
                retry=self.fanout_retry,
            )
        except (RPCTimeout, PortNotLocated):
            return False
        return reply.status == 0

    def reconcile(self):
        """Re-drive every fan-out that failed (e.g. across a partition).

        The peer-side CTL_APPLY handler is generation-guarded and
        idempotent, so re-delivery after heal is safe however many times
        it takes.  Still-unreachable peers stay queued for the next
        call.  Returns the number of repairs delivered.
        ``fanout_failures`` is left intact as the historical record."""
        pending, self._fanout_pending = self._fanout_pending, []
        repaired = 0
        for peer, record in pending:
            if self._send_control(peer, record):
                self.fanout_sent += 1
                repaired += 1
            else:
                self._fanout_pending.append((peer, record))
        return repaired

    @property
    def fanout_pending(self):
        """Count of failed fan-outs awaiting :meth:`reconcile`."""
        return len(self._fanout_pending)

    @command(stdops.STD_REFRESH)
    def _std_refresh(self, ctx):
        reply = super()._std_refresh(ctx)
        entry = self.table._entry(reply.capability.object)
        self._fan_out("refresh", entry, entry.secret)
        return reply

    @command(stdops.STD_DESTROY)
    def _std_destroy(self, ctx):
        # The row is gone once super() returns, so hold it first; a
        # missing capability is super()'s to refuse.
        entry = None if ctx.capability is None else self.table._entry(
            ctx.capability.object
        )
        reply = super()._std_destroy(ctx)
        self._fan_out("destroy", entry)
        return reply

    def sweep(self):
        """Aging is a revocation too: expiries propagate to the peers
        (whose own sweeps may lag — apply_destroy is idempotent when
        both sides expire the same object)."""
        expired = super().sweep()
        for entry in expired:
            self._fan_out("age", entry)
        return expired

    # -- inbound control commands --------------------------------------

    @command(stdops.CTL_APPLY)
    def _ctl_apply(self, ctx):
        if ctx.request.signature != self.control_image:
            raise SecurityError(
                "replica control requires the service signature"
            )
        number, generation, secret = unpack_revocation(ctx.request.data)
        if secret is None:
            applied = self.table.apply_destroy(number, generation)
        else:
            applied = self.table.apply_refresh(number, secret, generation)
        return ctx.ok(data=b"\x01" if applied else b"\x00")

    @command(stdops.CTL_HEALTH)
    def _ctl_health(self, ctx):
        stats = {
            "service": self.service_name,
            "objects": len(self.table),
            "peers": len(self.peers),
            "fanout_sent": self.fanout_sent,
            "fanout_failures": len(self.fanout_failures),
            "fanout_pending": self.fanout_pending,
        }
        if self.reply_cache is not None:
            stats["dedup"] = self.reply_cache.stats()
        return ctx.ok(data=json.dumps(stats, sort_keys=True).encode("utf-8"))


# ----------------------------------------------------------------------
# the pool, and the two places its members can run
# ----------------------------------------------------------------------


class ReplicatedObjectServer:
    """N replica servers behind one logical port.

    The pool draws the shared secrets (get-port G, then signature S),
    keeps a *template* object table whose rows every member is seeded
    with (``objects`` of them, holding ``payload``; their owner
    capabilities are ``capabilities``), builds the members through its
    placement, and answers LOCATE with the whole membership from its
    :class:`ReplicaRegistry`.  With a ``network`` the members are
    stations on it in this process (``servers``); with none they are
    forked OS processes over loopback UDP, found through ``arbiter`` —
    the station a client connects to and broadcasts LOCATE at.

    The replicated-state story is "shared secret, mirrored rows", which
    is all the paper's capability checks need; data mutation consistency
    is the *service's* problem, as it is in Amoeba.
    """

    def __init__(self, network=None, replicas=4, scheme=None, rng=None,
                 policy=ROUND_ROBIN, server_cls=ReplicaObjectServer,
                 fanout_retry=None, fanout_timeout=2.0, server_kwargs=None,
                 objects=0, payload=b""):
        if replicas < 1:
            raise ValueError("a replicated service needs at least one replica")
        self.network = network
        self.rng = rng or RandomSource()
        self.get_port = PrivatePort.generate(self.rng)
        self.signature = PrivatePort.generate(self.rng)
        self.put_port = self.get_port.public
        self.policy = policy
        self.scheme = scheme if scheme is not None else XorOneWayScheme()
        self.registry = ReplicaRegistry(policy=policy)
        self.table = ObjectTable(self.scheme, self.put_port, self.rng)
        self.capabilities = [self.table.create(payload) for _ in range(objects)]
        self._server_cls = server_cls
        self._server_kwargs = dict(
            server_kwargs or (), scheme=self.scheme, get_port=self.get_port,
            signature=self.signature, fanout_retry=fanout_retry,
            fanout_timeout=fanout_timeout,
        )
        self.servers = []    # the members that live in this process
        self.arbiter = None  # the forked members' rendezvous station
        self.placement = _Forked() if network is None else _InProcess()
        self.addresses = self.placement.launch(self, replicas)

    def _replica(self, node, control_node=None, rng=None):
        """What a replica *is*, wherever it runs: one server on ``node``
        sharing the pool's G, S and scheme, seeded with its rows."""
        server = self._server_cls(
            node, control_node=control_node, rng=rng or self.rng,
            **self._server_kwargs,
        )
        for capability in self.capabilities:
            _mirror(self.table._entry(capability.object), server.table)
        return server

    def _here(self, port):
        """The LOCATE answer: the packed membership, or None (silence)."""
        replicas = self.registry.replica_set(port)
        return None if replicas is None else pack_here_payload(port, replicas)

    # -- lifecycle ------------------------------------------------------

    def start(self):
        for server in self.servers:
            server.start()
        return self

    def stop(self):
        self.placement.stop(self)

    def kill(self, index):
        """Crash one replica: it stops serving and answering, but stays
        in the registry — clients are supposed to *discover* the death
        through timeout and failover, exactly like a real crash."""
        return self.placement.kill(self, index)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()
        return False

    # -- objects --------------------------------------------------------

    def create(self, data, rights=None):
        """Create an object on every replica in this process (forked
        ones take their rows at the fork: ``objects=``); one owner
        capability."""
        primary = self.servers[0].table
        if rights is None:
            capability = primary.create(data)
        else:
            capability = primary.create(data, rights)
        for server in self.servers[1:]:
            _mirror(primary._entry(capability.object), server.table)
        return capability

    # -- membership -----------------------------------------------------

    def replica_set(self):
        """The pool as clients see it (from the registry)."""
        replicas = self.registry.replica_set(self.put_port)
        if replicas is None:
            raise PortNotLocated("no replicas joined the pool")
        return replicas

    def health(self, index, timeout=1.0):
        """Is member ``index`` answering?  (Forked: a control-lane ping
        to its data station, answered by the child's pump.)"""
        return self.placement.alive(self, index, timeout)

    def probe(self, index, timeout=1.0):
        """Health-check one replica and update the registry's suspicion
        state: a silent member is *suspected* (steered around, never
        evicted — its generation state is intact behind the partition),
        an answering one unsuspected.  Returns the verdict."""
        alive = self.health(index, timeout)
        mark = self.registry.unsuspect if alive else self.registry.suspect
        mark(self.put_port, self.addresses[index])
        return alive

    def reconcile(self):
        """Re-drive failed revocation fan-outs on every live replica —
        call after a partition heals; returns total repairs delivered."""
        return sum(
            server.reconcile() for server in self.servers if server.running
        )

    def __repr__(self):
        return "ReplicatedObjectServer(port=%012x, replicas=%d)" % (
            self.put_port, len(self.addresses),
        )


def _mirror(entry, table):
    """Install a copy of one row in another member's table."""
    table.restore_entry(ObjectEntry(
        number=entry.number, secret=entry.secret, data=entry.data,
        generation=entry.generation, lifetime=entry.lifetime,
    ))


class _InProcess:
    """Members are stations on the pool's ``SimNetwork``, created in
    replica order; each answers LOCATE for the pool while it runs (any
    survivor can), and falls silent when stopped."""

    def launch(self, pool, replicas):
        for _ in range(replicas):
            pool.servers.append(pool._replica(Nic(pool.network)))
        machines = [server.node.address for server in pool.servers]
        for server, machine in zip(pool.servers, machines):
            server.peers = [m for m in machines if m != machine]
            pool.registry.join(pool.put_port, machine)
            install_locate_responder(
                server.node,
                lambda port, s=server: pool._here(port) if s.running else None,
            )
        return machines

    def kill(self, pool, index):
        server = pool.servers[index]
        if server.running:
            server.stop()
        return server

    def stop(self, pool):
        for index in range(len(pool.servers)):
            self.kill(pool, index)

    def alive(self, pool, index, _timeout):
        return pool.servers[index].running


#: How long the forking parent waits on each step of a child's start-up.
_HANDSHAKE_S = 10.0


def _serve_forked(pool, index, conn):
    """Child process body (entered via fork): two stations + one replica.

    Handshake: send (data address) → receive (every data address, the
    arbiter's) → JOIN over the control lane → send "ready" → serve
    until the parent sends "stop" (or dies: EOF).
    """
    from repro.net.sockets import CTL_JOIN, SocketNode

    data_node = SocketNode(buffer_egress=True)
    control_node = SocketNode()
    server = pool._replica(
        data_node, control_node, RandomSource(b"replica-%d" % index)
    ).start()
    conn.send(data_node.address)
    try:
        peers, arbiter = conn.recv()
        server.peers = [peer for peer in peers if peer != data_node.address]
        control_node.send_control(
            CTL_JOIN, pack_membership(pool.put_port, data_node.address), arbiter
        )
        conn.send("ready")
        conn.recv()
    except EOFError:
        pass
    server.stop()
    data_node.close()
    control_node.close()


class _Forked:
    """Members are forked OS processes over loopback UDP — each builds
    its stations *after* the fork (threads do not survive one) from the
    pool object the fork snapshot handed it.  Membership flows over the
    socket control lane to the parent's arbiter station; ``kill`` is a
    SIGKILL mid-flight, the failover scenario's crash."""

    def __init__(self):
        self.processes = []
        self.pipes = []

    def launch(self, pool, replicas):
        try:
            return self._launch(pool, replicas)
        except BaseException:
            for proc in self.processes:
                proc.kill()
            self.stop(pool)
            raise

    def _launch(self, pool, replicas):
        import multiprocessing

        from repro.net.sockets import SocketNode

        ctx = multiprocessing.get_context("fork")
        for index in range(replicas):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_serve_forked, args=(pool, index, child_conn),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self.processes.append(proc)
            self.pipes.append(parent_conn)
        addresses = [self._hear(i, "its address") for i in range(replicas)]
        # Arbiter after the forks: its pump thread must not exist in the
        # children (threads die at fork; a pre-fork station would leave
        # the children inheriting its dead locks).
        pool.arbiter = SocketNode()
        install_membership_handler(pool.arbiter, pool.registry)
        install_locate_responder(pool.arbiter, pool._here)
        for conn in self.pipes:
            conn.send((addresses, pool.arbiter.address))
        for index in range(replicas):
            self._hear(index, '"ready"')
        # JOINs travel the real control lane; wait for all of them.
        deadline = time.monotonic() + _HANDSHAKE_S
        while len(pool.registry.members(pool.put_port)) < replicas:
            if time.monotonic() > deadline:
                raise RuntimeError(
                    "only %d of %d replicas joined the arbiter"
                    % (len(pool.registry.members(pool.put_port)), replicas)
                )
            time.sleep(0.01)
        return addresses

    def _hear(self, index, what):
        """The next message from child ``index``, or a RuntimeError that
        names the child and the step of the handshake it never reached."""
        conn = self.pipes[index]
        try:
            if conn.poll(_HANDSHAKE_S):
                return conn.recv()
        except EOFError:
            pass
        raise RuntimeError("replica %d did not send %s" % (index, what))

    def kill(self, pool, index):
        proc = self.processes[index]
        proc.kill()
        proc.join(timeout=5.0)

    def stop(self, pool):
        for proc, conn in zip(self.processes, self.pipes):
            if proc.is_alive():
                try:
                    conn.send("stop")
                except OSError:
                    pass
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=2.0)
            conn.close()
        if pool.arbiter is not None:
            pool.arbiter.close()

    def alive(self, pool, index, timeout):
        return probe_liveness(pool.arbiter, pool.addresses[index], timeout)
