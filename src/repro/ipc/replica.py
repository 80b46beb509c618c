"""Replicated services: one logical put-port, N full server processes.

The paper's services are *logical* entities named by a sparse-capability
port — nothing in §2 ties a port to one machine.  This module makes the
binding plural end to end:

* :class:`ReplicaSet` — the value a locate now resolves to: an ordered
  pool of machine addresses, each transaction starting one member further
  round (a rotating cursor spreads the load with no coordination).
* :class:`ReplicaObjectServer` — a full :class:`ObjectServer` data plane
  that additionally *fans out* every revocation (STD_REFRESH,
  STD_DESTROY, aging) to its peer replicas over a signature-
  authenticated control channel, so a capability revoked anywhere is
  rejected everywhere — including each replica's §2.4 caches, which are
  purged through the same ``on_revocation`` hook a local revocation
  fires.  What crosses the wire is the write-ahead log's own refresh or
  destroy record (:mod:`repro.core.record`).  The fan-out is
  at-least-once (:class:`RetryPolicy`) and the peer applies the record
  through :meth:`ObjectTable.apply`, generation-guarded and idempotent,
  so duplicates and reordering are harmless.
* :class:`ReplicatedObjectServer` — the pool: N replica servers sharing
  one get-port, signature, scheme and seeded rows.  *Where* they run is
  an argument, not a second class: given a ``SimNetwork`` the members
  are stations on it in this process (deterministic; this is where the
  fault-injection tests run), given none they are forked OS processes
  over loopback UDP, each with a *data* station serving the logical
  port and a *control* station for outbound fan-out (a server handler
  runs on its station's pump thread, so a blocking peer transaction
  must leave through a second station or it would deadlock waiting on
  its own pump).  The pool's ``members`` tuple, in replica order, is
  its membership: set once when every member has started, and answered
  whole to a LOCATE broadcast for the pool's port (wire-compatible with
  the legacy single-machine HERE).  A member's health is one signed
  transaction answered by its server.

Failover contract (the part clients rely on): ``trans`` against a
ReplicaSet tries candidates in rotation order and fails over on
RPCTimeout, telling the locator to forget *only* the dead member.  Each
replica runs its own PR 6 ReplyCache, so a retry that lands on the
replica that already executed replays the cached reply — at-least-once
across the pool, never double-executed on any one replica.
"""

import itertools

from repro.core.ports import PORT_BYTES, Port, PrivatePort
from repro.core.record import DESTROY, REFRESH, Record, image, pack, unpack
from repro.core.registry import ObjectTable
from repro.core.schemes import XorOneWayScheme
from repro.crypto.randomsrc import RandomSource
from repro.errors import AmoebaError, BadRequest, PortNotLocated
from repro.errors import RPCTimeout, SecurityError
from repro.ipc import stdops
from repro.ipc.locate import install_locate_responder
from repro.ipc.rpc import RetryPolicy, trans
from repro.ipc.server import ADMIN, ObjectServer, command
from repro.net.message import Message
from repro.net.nic import Nic
from repro.util.record import Reader


# ----------------------------------------------------------------------
# wire records (read through repro.util.record.Reader: every framing
# defect is a ValueError, which each receiver answers by ignoring)
# ----------------------------------------------------------------------
#
# Machines are ints on the simulators and (host, udp_port) pairs over
# sockets; HERE answers need both on the wire.
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
    """The extended HERE body: port, member count, members.

    Longer than :data:`PORT_BYTES` even with no member (the count byte),
    so :class:`~repro.ipc.locate.Locator` can tell it from the legacy
    single-machine form by length alone.
    """
    members = tuple(replicas)
    if len(members) > 255:
        raise ValueError("replica set too large to encode")
    return (port.to_bytes() + bytes((len(members),))
            + b"".join(map(pack_machine, members)))


def unpack_here_payload(data):
    """Inverse of :func:`pack_here_payload`; raises ValueError on any
    framing defect (the locator then ignores the answer)."""
    reader = Reader(data)
    port = Port.from_bytes(reader.take(PORT_BYTES))
    members = [read_machine(reader) for _ in range(reader.u8())]
    reader.end()
    return port, ReplicaSet(members)


# ----------------------------------------------------------------------
# the replica set
# ----------------------------------------------------------------------


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

    __slots__ = ("members", "_cursor")

    def __init__(self, members):
        self.members = tuple(members)
        self._cursor = itertools.count()

    def select(self):
        """Candidates in preference order for one transaction: every
        member, the start point rotating one further per call — so the
        failover order of one call is the rotation from its start."""
        members = self.members
        if not members:
            return []
        start = next(self._cursor) % len(members)
        return list(members[start:]) + list(members[:start])

    def without(self, machine):
        """A new set minus one (dead) member."""
        return ReplicaSet(m for m in self.members if m != machine)

    def __contains__(self, machine):
        return machine in self.members

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)


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
        op = DESTROY if secret is None else REFRESH
        record = pack(Record(op, entry.number, entry.generation, secret))
        for peer in self.peers:
            if self._send_apply(peer, record):
                self.fanout_sent += 1
            else:
                self.fanout_failures.append((peer, op_name, entry.number))
                self._fanout_pending.append((peer, record))

    def _send_apply(self, peer, record):
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
            if self._send_apply(peer, record):
                self.fanout_sent += 1
                repaired += 1
            else:
                self._fanout_pending.append((peer, record))
        return repaired

    @property
    def fanout_pending(self):
        """Count of failed fan-outs awaiting :meth:`reconcile`."""
        return len(self._fanout_pending)

    @command(stdops.STD_REFRESH, needs=ADMIN)
    def _std_refresh(self, ctx):
        reply = super()._std_refresh(ctx)
        self._fan_out("refresh", ctx.entry, ctx.entry.secret)
        return reply

    @command(stdops.STD_DESTROY, needs=ADMIN)
    def _std_destroy(self, ctx):
        reply = super()._std_destroy(ctx)
        self._fan_out("destroy", ctx.entry)
        return reply

    def sweep(self):
        """Aging is a revocation too: expiries propagate to the peers
        (whose own sweeps may lag — a destroy record is a no-op where
        the object already expired)."""
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
        record = unpack(ctx.request.data)
        if record.op not in (REFRESH, DESTROY):
            raise BadRequest("a peer ships only refresh and destroy records")
        applied = self.table.apply(record)
        return ctx.ok(data=b"\x01" if applied else b"\x00")


# ----------------------------------------------------------------------
# the pool, and the two places its members can run
# ----------------------------------------------------------------------


class ReplicatedObjectServer:
    """N replica servers behind one logical port.

    The pool draws the shared secrets (get-port G, then signature S),
    keeps a *template* object table whose rows every member is seeded
    with (``objects`` of them, holding ``payload``; their owner
    capabilities are ``capabilities``), builds the members through its
    placement, and answers LOCATE with the whole membership, its
    ``members`` tuple.  With a ``network`` the members are stations on
    it in this process (``servers``); with none they are forked OS
    processes over loopback UDP, found through ``arbiter`` — the station
    a client connects to and broadcasts LOCATE at.

    The replicated-state story is "shared secret, mirrored rows", which
    is all the paper's capability checks need; data mutation consistency
    is the *service's* problem, as it is in Amoeba.
    """

    def __init__(self, network=None, replicas=4, scheme=None, rng=None,
                 server_cls=ReplicaObjectServer,
                 fanout_retry=None, fanout_timeout=2.0, server_kwargs=None,
                 objects=0, payload=b""):
        if replicas < 1:
            raise ValueError("a replicated service needs at least one replica")
        self.network = network
        self.rng = rng or RandomSource()
        self.get_port = PrivatePort.generate(self.rng)
        self.signature = PrivatePort.generate(self.rng)
        self.put_port = self.get_port.public
        self.scheme = scheme if scheme is not None else XorOneWayScheme()
        self.table = ObjectTable(self.scheme, self.put_port, self.rng)
        self.capabilities = [self.table.create(payload) for _ in range(objects)]
        self._server_cls = server_cls
        self._server_kwargs = dict(
            server_kwargs or (), scheme=self.scheme, get_port=self.get_port,
            signature=self.signature, fanout_retry=fanout_retry,
            fanout_timeout=fanout_timeout,
        )
        self.servers = []    # the members that live in this process
        self.arbiter = None  # the station clients reach a forked pool at
        #: The members' addresses in replica order, set once by the
        #: placement when launch completes.
        self.members = ()
        self.placement = _Forked() if network is None else _InProcess()
        self.placement.launch(self, replicas)

    def _replica(self, node, control_node=None, rng=None):
        """What a replica *is*, wherever it runs: one server on ``node``
        sharing the pool's G, S and scheme, seeded with its rows."""
        server = self._server_cls(
            node, control_node=control_node, rng=rng or self.rng,
            **self._server_kwargs,
        )
        for capability in self.capabilities:
            server.table.apply(image(self.table._entry(capability.object)))
        return server

    def _here(self, port):
        """The LOCATE answer: the packed membership for the pool's own
        port, None (silence) for any other."""
        if port != self.put_port:
            return None
        return pack_here_payload(port, self.replica_set())

    # -- lifecycle ------------------------------------------------------

    def start(self):
        for server in self.servers:
            server.start()
        return self

    def stop(self):
        self.placement.stop(self)

    def kill(self, index):
        """Crash one replica: it stops serving and answering, but stays
        in ``members`` — clients are supposed to *discover* the death
        through timeout and failover, exactly like a real crash."""
        return self.placement.kill(self, index)

    # -- objects --------------------------------------------------------

    def create(self, data, rights=None):
        """Create an object on every replica in this process (forked
        ones take their rows at the fork: ``objects=``); one owner
        capability."""
        if not self.servers:
            raise AmoebaError("create() reaches only members in this "
                              "process; a forked pool takes its rows at "
                              "the fork: pass objects= to the constructor")
        primary = self.servers[0].table
        if rights is None:
            capability = primary.create(data)
        else:
            capability = primary.create(data, rights)
        row = image(primary._entry(capability.object))
        for server in self.servers[1:]:
            server.table.apply(row)
        return capability

    # -- membership -----------------------------------------------------

    def replica_set(self):
        """The pool as clients see it."""
        return ReplicaSet(self.members)

    def health(self, index, timeout=1.0):
        """Is member ``index`` answering?  (Forked: one transaction to
        its server, whose reply only an F-box holding the pool's
        signature secret can sign.)"""
        return self.placement.alive(self, index, timeout)

    def reconcile(self):
        """Re-drive failed revocation fan-outs on every live replica —
        call after a partition heals; returns total repairs delivered."""
        return sum(
            server.reconcile() for server in self.servers if server.running
        )


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
            install_locate_responder(
                server.node,
                lambda port, s=server: pool._here(port) if s.running else None,
            )
        pool.members = tuple(machines)

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

    Handshake: send (data address) → receive (every data address) →
    send "ready" → serve until the parent sends "stop" (or dies: EOF).
    """
    from repro.net.sockets import SocketNode

    data_node = SocketNode(buffer_egress=True)
    control_node = SocketNode()
    server = pool._replica(
        data_node, control_node, RandomSource(b"replica-%d" % index)
    ).start()
    conn.send(data_node.address)
    try:
        peers = conn.recv()
        server.peers = [peer for peer in peers if peer != data_node.address]
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
    pool object the fork snapshot handed it.  The parent sets the
    pool's ``members`` once every member reports ready, so membership is
    in replica order and never crosses the wire; ``kill`` is a SIGKILL
    mid-flight, the failover scenario's crash."""

    def __init__(self):
        self.processes = []
        self.pipes = []

    def launch(self, pool, replicas):
        try:
            self._launch(pool, replicas)
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
        for conn in self.pipes:
            conn.send(addresses)
        for index in range(replicas):
            self._hear(index, '"ready"')
        pool.members = tuple(addresses)
        install_locate_responder(pool.arbiter, pool._here)

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
        """One capability-less STD_INFO from the arbiter: the member is
        alive when a reply signed with F(S) comes back (its status, a
        refusal, does not matter — only an S-holder could sign it)."""
        try:
            trans(pool.arbiter, pool.put_port, Message(command=stdops.STD_INFO),
                  rng=pool.rng, timeout=timeout,
                  expect_signature=pool.signature.public,
                  dst_machine=pool.members[index])
        except RPCTimeout:
            return False
        return True
