"""Replicated services: one logical put-port, N full server processes.

The paper's services are *logical* entities named by a sparse-capability
port — nothing in §2 ties a port to one machine.  This module makes the
binding plural end to end:

* :class:`ReplicaSet` — the value a locate now resolves to: an ordered
  pool of machine addresses plus a *spread policy* (round-robin, or a
  rendezvous hash on the object number so every client computes the same
  per-object home replica without coordination).
* :class:`ReplicaRegistry` + :func:`install_replica_locate_responder` —
  the membership side: replicas join/leave a port's pool, LOCATE
  broadcasts are answered with the whole pool (wire-compatible with the
  legacy single-machine HERE).
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
* :class:`ReplicatedObjectServer` — the in-process (SimNetwork) pool:
  N replica servers sharing one get-port/signature, objects mirrored at
  creation.  Deterministic; this is where the fault-injection tests run.
* :class:`ReplicaPool` — the real thing: N OS processes over loopback
  UDP (the PR 3 fork pattern), each with a *data* station serving the
  logical port and a *control* station for outbound fan-out (a server
  handler runs on its station's pump thread, so a blocking peer
  transaction must leave through a second station or it would deadlock
  waiting on its own pump).  Replicas register with the arbiter's
  registry over the socket control lane (join/leave/health).

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
import struct
import threading

from repro.core.ports import PORT_BYTES, Port, PrivatePort, as_port
from repro.core.registry import ObjectEntry
from repro.crypto.randomsrc import RandomSource
from repro.errors import BadRequest, PortNotLocated, RPCTimeout, SecurityError
from repro.ipc import stdops
from repro.ipc.rpc import RetryPolicy, trans
from repro.ipc.server import ObjectServer, command
from repro.net.message import Message

#: Spread policies a :class:`ReplicaSet` understands.
ROUND_ROBIN = "round_robin"
RENDEZVOUS = "rendezvous"

_POLICY_CODES = {ROUND_ROBIN: 0, RENDEZVOUS: 1}
_POLICY_NAMES = {code: name for name, code in _POLICY_CODES.items()}


# ----------------------------------------------------------------------
# machine / replica-set wire codec
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


def _unpack_machine(data, pos):
    if pos >= len(data):
        raise ValueError("truncated machine encoding")
    tag = data[pos]
    pos += 1
    if tag == 0x01:
        if pos + 8 > len(data):
            raise ValueError("truncated machine number")
        return int.from_bytes(data[pos:pos + 8], "big"), pos + 8
    if tag == 0x02:
        if pos >= len(data):
            raise ValueError("truncated host length")
        hlen = data[pos]
        pos += 1
        if pos + hlen + 2 > len(data):
            raise ValueError("truncated host address")
        host = data[pos:pos + hlen].decode("utf-8")
        pos += hlen
        port = int.from_bytes(data[pos:pos + 2], "big")
        return (host, port), pos + 2
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
    parts = [
        port.to_bytes(),
        bytes((_POLICY_CODES[replicas.policy],)),
        bytes((len(members),)),
    ]
    parts.extend(pack_machine(m) for m in members)
    return b"".join(parts)


def unpack_here_payload(data):
    """Inverse of :func:`pack_here_payload`; raises ValueError on any
    framing defect (the locator then ignores the answer)."""
    if len(data) < PORT_BYTES + 2:
        raise ValueError("HERE payload too short for a replica set")
    port = Port.from_bytes(data[:PORT_BYTES])
    policy_code = data[PORT_BYTES]
    count = data[PORT_BYTES + 1]
    policy = _POLICY_NAMES.get(policy_code)
    if policy is None:
        raise ValueError("unknown spread policy code %d" % policy_code)
    members = []
    pos = PORT_BYTES + 2
    for _ in range(count):
        machine, pos = _unpack_machine(data, pos)
        members.append(machine)
    if pos != len(data):
        raise ValueError("trailing bytes after replica set")
    return port, ReplicaSet(members, policy=policy)


def pack_membership(port, machine):
    """JOIN/LEAVE control payload: which machine serves which port."""
    return port.to_bytes() + pack_machine(machine)


def unpack_membership(payload):
    if len(payload) < PORT_BYTES + 1:
        raise ValueError("membership payload too short")
    port = Port.from_bytes(payload[:PORT_BYTES])
    machine, pos = _unpack_machine(payload, PORT_BYTES)
    if pos != len(payload):
        raise ValueError("trailing bytes after membership record")
    return port, machine


# Scheme secrets are ints (check-field schemes) or raw bytes (encrypted
# rights); the refresh fan-out has to carry either.
def _pack_secret(secret):
    if isinstance(secret, int):
        width = max(1, (secret.bit_length() + 7) // 8)
        return b"\x01" + width.to_bytes(2, "big") + secret.to_bytes(width, "big")
    raw = bytes(secret)
    return b"\x02" + len(raw).to_bytes(2, "big") + raw


def _unpack_secret(data, pos):
    if pos + 3 > len(data):
        raise ValueError("truncated secret encoding")
    tag = data[pos]
    width = int.from_bytes(data[pos + 1:pos + 3], "big")
    pos += 3
    if pos + width > len(data):
        raise ValueError("truncated secret body")
    body = data[pos:pos + width]
    pos += width
    if tag == 0x01:
        return int.from_bytes(body, "big"), pos
    if tag == 0x02:
        return bytes(body), pos
    raise ValueError("unknown secret tag %d" % tag)


_REVOKE_HEAD = struct.Struct(">II")  # object number, generation


def pack_refresh_payload(number, generation, secret):
    return _REVOKE_HEAD.pack(number, generation) + _pack_secret(secret)


def unpack_refresh_payload(data):
    number, generation = _REVOKE_HEAD.unpack_from(data)
    secret, pos = _unpack_secret(data, _REVOKE_HEAD.size)
    if pos != len(data):
        raise ValueError("trailing bytes after refresh payload")
    return number, generation, secret


def pack_destroy_payload(number, generation):
    return _REVOKE_HEAD.pack(number, generation)


def unpack_destroy_payload(data):
    if len(data) != _REVOKE_HEAD.size:
        raise ValueError("bad destroy payload length")
    return _REVOKE_HEAD.unpack(data)


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
        self._members = {}   # port -> list of machines (join order)
        self._policies = {}  # port -> policy override
        # port -> set of machines suspected unreachable (a partition
        # symptom, NOT a crash): suspicion is advisory — the member
        # keeps its membership (and its generation state) and is merely
        # steered around until unsuspected or re-joined.
        self._suspects = {}

    def join(self, port, machine, policy=None):
        port = as_port(port)
        with self._lock:
            members = self._members.setdefault(port, [])
            if machine not in members:
                members.append(machine)
            if policy is not None:
                self._policies[port] = policy
            # A (re)join is proof of reachability.
            suspects = self._suspects.get(port)
            if suspects is not None:
                suspects.discard(machine)
        return machine

    def leave(self, port, machine):
        port = as_port(port)
        with self._lock:
            members = self._members.get(port)
            if members is None or machine not in members:
                return False
            members.remove(machine)
            if not members:
                del self._members[port]
            suspects = self._suspects.get(port)
            if suspects is not None:
                suspects.discard(machine)
                if not suspects:
                    del self._suspects[port]
        return True

    def suspect(self, port, machine):
        """Mark a *member* as unreachable-but-not-evicted.  Unknown
        machines are ignored (suspicion cannot invent members)."""
        port = as_port(port)
        with self._lock:
            members = self._members.get(port)
            if members is None or machine not in members:
                return False
            self._suspects.setdefault(port, set()).add(machine)
        return True

    def unsuspect(self, port, machine):
        """Clear one suspicion (the member answered again)."""
        port = as_port(port)
        with self._lock:
            suspects = self._suspects.get(port)
            if suspects is None or machine not in suspects:
                return False
            suspects.discard(machine)
            if not suspects:
                del self._suspects[port]
        return True

    def suspected(self, port):
        """The currently-suspected members of ``port`` (a fresh tuple,
        in join order)."""
        port = as_port(port)
        with self._lock:
            suspects = self._suspects.get(port)
            if not suspects:
                return ()
            return tuple(m for m in self._members.get(port, ())
                         if m in suspects)

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
            policy = self._policies.get(port, self.default_policy)
            suspects = self._suspects.get(port)
            if suspects:
                trusted = tuple(m for m in members if m not in suspects)
                if trusted:
                    return ReplicaSet(trusted, policy=policy)
            return ReplicaSet(tuple(members), policy=policy)

    def ports(self):
        with self._lock:
            return tuple(self._members)

    def __len__(self):
        with self._lock:
            return len(self._members)


def install_replica_locate_responder(nic, registry, alive=None):
    """Answer LOCATE broadcasts with the port's *whole replica pool*.

    The replica-aware counterpart of
    :func:`repro.ipc.locate.install_locate_responder`: instead of "I am
    here", the answer is the packed replica set from ``registry``.
    ``alive`` (an optional zero-argument callable) gates the responder —
    a stopped replica must fall silent even though its broadcast hook
    cannot be unregistered.
    """

    def responder(frame):
        message = frame.message
        if message.command != stdops.LOCATE:
            return
        if alive is not None and not alive():
            return
        try:
            target = Port.from_bytes(message.data)
        except ValueError:
            return
        replicas = registry.replica_set(target)
        if replicas is None or not len(replicas):
            return
        here = Message(
            dest=message.reply,
            command=stdops.HERE,
            data=pack_here_payload(target, replicas),
            is_reply=True,
        )
        nic.put(here, dst_machine=frame.src)

    nic.on_broadcast(responder)
    return responder


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
        # Full (peer, opcode, payload, op_name, number) records of those
        # same failures, kept until reconcile() re-delivers them — the
        # repair queue a healed partition is drained through.
        self._fanout_pending = []

    # -- outbound fan-out ----------------------------------------------

    def _fan_out(self, opcode, payload, op_name, number):
        """Tell every peer to apply one revocation; at-least-once per
        peer, failures recorded rather than raised — the *local*
        revocation has already happened and must be reported to the
        client regardless (the capability is dead here; a lagging peer
        is a liveness problem, not a correctness rollback)."""
        for peer in self.peers:
            if self._send_control(peer, opcode, payload):
                self.fanout_sent += 1
            else:
                self.fanout_failures.append((peer, op_name, number))
                self._fanout_pending.append(
                    (peer, opcode, payload, op_name, number)
                )

    def _send_control(self, peer, opcode, payload):
        request = Message(command=opcode, data=payload)
        try:
            trans(
                self.control_node,
                self.put_port,
                request,
                rng=self.rng,
                timeout=self.fanout_timeout,
                expect_signature=self.control_image,
                dst_machine=peer,
                signature=self.signature,
                retry=self.fanout_retry,
            )
        except (RPCTimeout, PortNotLocated):
            return False
        return True

    def reconcile(self):
        """Re-drive every fan-out that failed (e.g. across a partition).

        The peer-side CTL_APPLY handlers are generation-guarded and
        idempotent, so re-delivery after heal is safe however many times
        it takes.  Still-unreachable peers stay queued for the next
        call.  Returns the number of repairs delivered.
        ``fanout_failures`` is left intact as the historical record."""
        pending, self._fanout_pending = self._fanout_pending, []
        repaired = 0
        for record in pending:
            peer, opcode, payload, _op_name, _number = record
            if self._send_control(peer, opcode, payload):
                self.fanout_sent += 1
                repaired += 1
            else:
                self._fanout_pending.append(record)
        return repaired

    @property
    def fanout_pending(self):
        """Count of failed fan-outs awaiting :meth:`reconcile`."""
        return len(self._fanout_pending)

    @command(stdops.STD_REFRESH)
    def _std_refresh(self, ctx):
        if ctx.capability is None:
            raise BadRequest("REFRESH requires a capability")
        fresh = self.table.refresh(ctx.capability, required=self.admin_rights)
        entry = self.table._entry(fresh.object)
        self._fan_out(
            stdops.CTL_APPLY_REFRESH,
            pack_refresh_payload(entry.number, entry.generation, entry.secret),
            "refresh",
            entry.number,
        )
        return ctx.ok(capability=fresh)

    @command(stdops.STD_DESTROY)
    def _std_destroy(self, ctx):
        if ctx.capability is None:
            raise BadRequest("DESTROY requires a capability")
        entry, _ = self.table.lookup(ctx.capability, self.admin_rights)
        self.on_destroy(entry)
        self.table.destroy(ctx.capability, required=self.admin_rights)
        self._fan_out(
            stdops.CTL_APPLY_DESTROY,
            pack_destroy_payload(entry.number, entry.generation),
            "destroy",
            entry.number,
        )
        return ctx.ok()

    def sweep(self):
        """Aging is a revocation too: expiries propagate to the peers
        (whose own sweeps may lag — apply_destroy is idempotent when
        both sides expire the same object)."""
        expired = super().sweep()
        for entry in expired:
            self._fan_out(
                stdops.CTL_APPLY_DESTROY,
                pack_destroy_payload(entry.number, entry.generation),
                "age",
                entry.number,
            )
        return expired

    # -- inbound control commands --------------------------------------

    def _authorize_control(self, ctx):
        if ctx.request.signature != self.control_image:
            raise SecurityError(
                "replica control requires the service signature"
            )

    @command(stdops.CTL_APPLY_REFRESH)
    def _ctl_apply_refresh(self, ctx):
        self._authorize_control(ctx)
        number, generation, secret = unpack_refresh_payload(ctx.request.data)
        applied = self.table.apply_refresh(number, secret, generation)
        return ctx.ok(data=b"\x01" if applied else b"\x00")

    @command(stdops.CTL_APPLY_DESTROY)
    def _ctl_apply_destroy(self, ctx):
        self._authorize_control(ctx)
        number, _generation = unpack_destroy_payload(ctx.request.data)
        applied = self.table.apply_destroy(number)
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
# the in-process pool (SimNetwork)
# ----------------------------------------------------------------------


class ReplicatedObjectServer:
    """N replica servers on one simulated network, one logical port.

    The coordinator draws the shared secrets (get-port G, signature S),
    builds one :class:`ReplicaObjectServer` per replica on its own
    station, cross-wires the peer lists, registers every member in a
    :class:`ReplicaRegistry`, and installs a replica-aware locate
    responder on each station (any survivor can answer for the pool).

    :meth:`create` mints objects on replica 0 and mirrors the row to the
    others, so one capability validates everywhere — the replicated-
    state story here is "shared secret, mirrored rows", which is all the
    paper's capability checks need; data mutation consistency is the
    *service's* problem, as it is in Amoeba.
    """

    def __init__(self, network, replicas=4, scheme=None, rng=None,
                 policy=ROUND_ROBIN, server_cls=ReplicaObjectServer,
                 registry=None, fanout_retry=None, fanout_timeout=2.0,
                 server_kwargs=None):
        from repro.net.nic import Nic

        if replicas < 1:
            raise ValueError("a replicated service needs at least one replica")
        self.network = network
        self.rng = rng or RandomSource()
        self.get_port = PrivatePort.generate(self.rng)
        self.signature = PrivatePort.generate(self.rng)
        self.put_port = self.get_port.public
        self.policy = policy
        self.registry = registry if registry is not None else ReplicaRegistry()
        kwargs = dict(server_kwargs or ())
        scheme_obj = scheme
        if scheme_obj is None:
            from repro.core.schemes import XorOneWayScheme

            scheme_obj = XorOneWayScheme()
        self.scheme = scheme_obj
        self.servers = []
        for _ in range(replicas):
            node = Nic(network)
            server = server_cls(
                node,
                scheme=self.scheme,
                rng=self.rng,
                get_port=self.get_port,
                signature=self.signature,
                fanout_retry=fanout_retry,
                fanout_timeout=fanout_timeout,
                **kwargs,
            )
            self.servers.append(server)
        machines = [server.node.address for server in self.servers]
        for server, machine in zip(self.servers, machines):
            server.peers = [m for m in machines if m != machine]
            self.registry.join(self.put_port, machine, policy=policy)
            install_replica_locate_responder(
                server.node, self.registry,
                alive=lambda s=server: s.running,
            )

    # -- lifecycle ------------------------------------------------------

    def start(self):
        for server in self.servers:
            server.start()
        return self

    def stop(self):
        for server in self.servers:
            if server.running:
                server.stop()

    def kill(self, index, leave_registry=False):
        """Crash one replica: it stops serving and answering, but stays
        in the registry by default — clients are supposed to *discover*
        the death through timeout and failover, exactly like a real
        crash.  ``leave_registry=True`` models a graceful drain."""
        server = self.servers[index]
        if server.running:
            server.stop()
        if leave_registry:
            self.registry.leave(self.put_port, server.node.address)
        return server

    # -- objects --------------------------------------------------------

    def create(self, data, rights=None):
        """Create an object on every replica; one owner capability."""
        primary = self.servers[0].table
        if rights is None:
            capability = primary.create(data)
        else:
            capability = primary.create(data, rights)
        entry = primary._entry(capability.object)
        for server in self.servers[1:]:
            server.table.restore_entry(
                ObjectEntry(
                    number=entry.number,
                    secret=entry.secret,
                    data=data,
                    generation=entry.generation,
                    lifetime=entry.lifetime,
                )
            )
        return capability

    def replica_set(self):
        return self.registry.replica_set(self.put_port)

    def reconcile(self):
        """Re-drive failed revocation fan-outs on every live replica —
        call after a partition heals; returns total repairs delivered."""
        return sum(
            server.reconcile() for server in self.servers if server.running
        )

    def __repr__(self):
        return "ReplicatedObjectServer(port=%012x, replicas=%d)" % (
            self.put_port, len(self.servers),
        )


# ----------------------------------------------------------------------
# the OS-process pool (loopback UDP)
# ----------------------------------------------------------------------


def _run_replica_child(conn, index, get_port, signature, scheme, seed_rows,
                       server_factory, buffer_egress):
    """Child process body (entered via fork): two stations + one server.

    Handshake: send (data_address) → receive (peer data addresses,
    arbiter address) → JOIN over the control lane → send "ready" →
    serve until the parent sends "stop" (or the process is killed).
    """
    from repro.net.sockets import CTL_JOIN, SocketNode

    data_node = SocketNode(buffer_egress=buffer_egress)
    control_node = SocketNode()
    server = server_factory(
        data_node,
        control_node=control_node,
        scheme=scheme,
        get_port=get_port,
        signature=signature,
        rng=RandomSource(b"replica-%d" % index),
    )
    for number, secret, data, generation in seed_rows:
        server.table.restore_entry(
            ObjectEntry(
                number=number, secret=secret, data=data, generation=generation,
            )
        )
    server.start()
    conn.send(data_node.address)
    peers, arbiter = conn.recv()
    server.peers = [peer for peer in peers if peer != data_node.address]
    control_node.send_control(
        CTL_JOIN, pack_membership(server.put_port, data_node.address), arbiter
    )
    conn.send("ready")
    try:
        conn.recv()  # blocks until "stop" (or EOF when the parent dies)
    except EOFError:
        pass
    server.stop()
    data_node.close()
    control_node.close()


class ReplicaPool:
    """N OS processes serving one logical port over loopback UDP.

    The parent populates a *template* object table (shared scheme,
    get-port, signature), snapshots its rows, and forks the children —
    each builds fresh stations post-fork (threads do not survive a
    fork), restores the rows, and serves.  Membership flows over the
    socket control lane to the parent's arbiter station, whose registry
    backs a replica-aware LOCATE responder; a client that connects to
    the arbiter and broadcasts LOCATE gets the whole pool back.

    ``kill(i)`` SIGKILLs a replica mid-flight — the failover scenario's
    crash. ``health(i)`` is a control-lane ping answered by the child's
    pump.
    """

    def __init__(self, replicas=4, objects=1, payload=b"",
                 server_factory=ReplicaObjectServer, scheme=None, rng=None,
                 policy=ROUND_ROBIN, buffer_egress=True, seed=b"replica-pool"):
        import multiprocessing

        from repro.core.registry import ObjectTable
        from repro.net.sockets import SocketNode

        if replicas < 1:
            raise ValueError("a pool needs at least one replica")
        self.rng = rng or RandomSource(seed)
        self.get_port = PrivatePort.generate(self.rng)
        self.signature = PrivatePort.generate(self.rng)
        self.put_port = self.get_port.public
        self.policy = policy
        scheme_obj = scheme
        if scheme_obj is None:
            from repro.core.schemes import XorOneWayScheme

            scheme_obj = XorOneWayScheme()
        self.scheme = scheme_obj
        # Template table: rows and owner capabilities drawn once in the
        # parent, inherited by every child through the fork snapshot.
        self.table = ObjectTable(scheme_obj, self.put_port, self.rng)
        self.capabilities = [
            self.table.create(payload) for _ in range(objects)
        ]
        seed_rows = self.table.snapshot_entries()
        ctx = multiprocessing.get_context("fork")
        self.processes = []
        self.pipes = []
        for index in range(replicas):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_run_replica_child,
                args=(child_conn, index, self.get_port, self.signature,
                      scheme_obj, seed_rows, server_factory, buffer_egress),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self.processes.append(proc)
            self.pipes.append(parent_conn)
        self.addresses = [conn.recv() for conn in self.pipes]
        # Arbiter after the forks: its pump thread must not exist in the
        # children (threads die at fork; a pre-fork station would leave
        # the children inheriting its dead locks).
        self.registry = ReplicaRegistry(policy=policy)
        self.arbiter = SocketNode()
        install_membership_handler(self.arbiter, self.registry)
        install_replica_locate_responder(self.arbiter, self.registry)
        arbiter_addr = self.arbiter.address
        for conn in self.pipes:
            conn.send((list(self.addresses), arbiter_addr))
        for conn in self.pipes:
            assert conn.recv() == "ready"
        # JOINs travel the real control lane; wait for all of them.
        import time as _time

        deadline = _time.monotonic() + 5.0
        while (
            len(self.registry.members(self.put_port)) < replicas
            and _time.monotonic() < deadline
        ):
            _time.sleep(0.01)
        self.killed = set()

    def replica_set(self):
        """The pool as clients see it (from the arbiter's registry)."""
        replicas = self.registry.replica_set(self.put_port)
        if replicas is None:
            raise PortNotLocated("no replicas joined the pool")
        return replicas

    def health(self, index, timeout=1.0):
        """Control-lane ping to one replica's data station."""
        return probe_liveness(self.arbiter, self.addresses[index], timeout)

    def probe(self, index, timeout=1.0):
        """Health-check one replica and update the registry's suspicion
        state: a silent member is *suspected* (steered around, never
        evicted — its generation state is intact behind the partition),
        an answering one unsuspected.  Returns the ping verdict."""
        alive = self.health(index, timeout)
        machine = self.addresses[index]
        if alive:
            self.registry.unsuspect(self.put_port, machine)
        else:
            self.registry.suspect(self.put_port, machine)
        return alive

    def kill(self, index, leave_registry=False):
        """SIGKILL one replica (the crash in the failover scenario).
        The registry keeps the member unless ``leave_registry`` — death
        is for the clients to discover."""
        proc = self.processes[index]
        proc.kill()
        proc.join(timeout=5.0)
        self.killed.add(index)
        if leave_registry:
            self.registry.leave(self.put_port, self.addresses[index])

    def stop(self):
        for index, (proc, conn) in enumerate(zip(self.processes, self.pipes)):
            if index in self.killed:
                conn.close()
                continue
            try:
                conn.send("stop")
            except (BrokenPipeError, OSError):
                pass
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            conn.close()
        self.arbiter.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()
        return False
