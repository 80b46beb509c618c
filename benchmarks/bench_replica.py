"""Replicated-service arms: one logical port, N replicas.

Arms (keys in ``BENCH_invariants.json``):

``replica_kill_failover``
    The acceptance scenario: a 4-OS-process forked pool over loopback
    UDP under a multi-threaded client retry storm; one replica is
    SIGKILLed mid-storm.  The bars: every transaction completes (clients
    re-locate and fail over), no replica ever double-executes one
    (per-replica ReplyCache dedup), and each client forgot exactly the
    dead member from its location cache, keeping the survivors.  Which
    replica served which transaction depends on thread timing, so only
    those verdicts are recorded.

``replica_sim_flood``
    The overload experiment of :mod:`bench_flood` run against an
    in-process replica pool: a port-addressed flood into a bounded
    ingress queue (the simulated network round-robins the logical port
    across all replicas), drop-and-count at the bound, and a full
    pipelined batch served afterwards.

What a replicated transaction costs is the suite's ``lossy_failover``
and ``udp_pipelined16``; a pool's aggregate rate cannot be judged on
fewer CPUs than replicas and is not measured (docs/PERFORMANCE.md
"Removed (PR 20)").
"""

import json
import threading

from repro.crypto.randomsrc import RandomSource
from repro.ipc import stdops
from repro.ipc.client import ServiceClient
from repro.ipc.locate import Locator
from repro.ipc.replica import (
    ReplicaObjectServer,
    ReplicatedObjectServer,
)
from repro.ipc.rpc import RetryPolicy, trans
from repro.ipc.server import command
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.net.sockets import SocketNode

from bench_flood import flood, served_after

#: Generous per-transaction budget: failover burns candidate timeout
#: slices before succeeding, and CI boxes stall; a real loss still
#: fails loudly.
_TIMEOUT = 8.0


class EchoReplicaServer(ReplicaObjectServer):
    """Replica data plane plus the echo op the flood arm drives."""

    service_name = "replica bench echo"

    @command(stdops.USER_BASE)
    def _echo(self, ctx):
        return ctx.ok(data=ctx.request.data)


class RecordReplicaServer(ReplicaObjectServer):
    """Records every transaction id it executes, for dedup audits.

    ``USER_BASE`` records the request payload (a client-unique
    transaction id) and its execution count on *this* replica;
    ``USER_BASE + 1`` returns the whole record as JSON.  A retried
    transaction absorbed by the ReplyCache replays the reply without
    re-recording — so any count above 1 is a real double-execution.
    """

    service_name = "replica bench recorder"
    RECORD = stdops.USER_BASE
    REPORT = stdops.USER_BASE + 1

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._record = {}
        self._record_lock = threading.Lock()

    @command(RECORD)
    def _user_record(self, ctx):
        txn = ctx.request.data.decode("utf-8")
        with self._record_lock:
            self._record[txn] = self._record.get(txn, 0) + 1
        return ctx.ok()

    @command(REPORT)
    def _user_report(self, ctx):
        with self._record_lock:
            body = json.dumps(self._record, sort_keys=True)
        return ctx.ok(data=body.encode("utf-8"))


def replica_kill_failover(replicas=4, client_threads=4, per_thread=24,
                          kill_index=1):
    """Kill one of N mid-storm; report completion, dedup, invalidation."""
    # The post-kill phase must cover at least one full round-robin
    # rotation per client, so every client provably encounters the dead
    # member and fails over.
    per_thread = max(per_thread, 2 * replicas + 2)
    pool = ReplicatedObjectServer(
        replicas=replicas, objects=1, server_cls=RecordReplicaServer,
        rng=RandomSource(b"bench-failover"),
    )
    pre_kill = per_thread // 2
    completed = []
    completed_lock = threading.Lock()
    storm_errors = []
    locators = []
    # The kill lands between the two storm phases: every client has
    # completed half its transactions, the rest happen against a pool
    # with one freshly SIGKILLed member.
    phase_done = threading.Barrier(client_threads + 1)
    resume = threading.Event()
    result = {
        "replicas": replicas,
        "transactions": client_threads * per_thread,
    }
    try:
        def storm(thread_index):
            node = SocketNode()
            try:
                node.connect(pool.arbiter.address)
                locator = Locator(node, rng=RandomSource(500 + thread_index))
                locators.append(locator)
                client = ServiceClient(
                    node,
                    pool.put_port,
                    rng=RandomSource(600 + thread_index),
                    expect_signature=pool.signature.public,
                    locator=locator,
                    timeout=_TIMEOUT,
                    retry=RetryPolicy(attempts=3, rto=0.05, cap=0.5,
                                      seed=thread_index),
                )
                for i in range(per_thread):
                    if i == pre_kill:
                        phase_done.wait()
                        resume.wait()
                    txn = "txn-%d-%d" % (thread_index, i)
                    client.call(RecordReplicaServer.RECORD,
                                data=txn.encode("utf-8"))
                    with completed_lock:
                        completed.append(txn)
            except Exception as exc:
                storm_errors.append("client %d: %r" % (thread_index, exc))
                phase_done.abort()
                resume.set()
            finally:
                node.close()

        workers = [
            threading.Thread(target=storm, args=(t,))
            for t in range(client_threads)
        ]
        for worker in workers:
            worker.start()
        try:
            phase_done.wait()  # every client finished its pre-kill half
        except threading.BrokenBarrierError:
            pass  # a client failed early; its error is in storm_errors
        pool.kill(kill_index)
        resume.set()
        for worker in workers:
            worker.join()
        result["completed"] = len(completed)
        result["storm_errors"] = sorted(storm_errors)

        # Per-replica dedup audit: ask every surviving replica for its
        # execution record; any transaction executed twice on one
        # replica is a correctness failure.
        audit_node = SocketNode()
        try:
            multiplicities = []
            for index, address in enumerate(pool.members):
                if index == kill_index:
                    continue
                reply = trans(
                    audit_node, pool.put_port,
                    Message(command=RecordReplicaServer.REPORT),
                    RandomSource(900 + index), timeout=_TIMEOUT,
                    expect_signature=pool.signature.public,
                    dst_machine=address,
                )
                record = json.loads(reply.data.decode("utf-8"))
                multiplicities.extend(record.values())
        finally:
            audit_node.close()
        result["max_multiplicity_per_replica"] = max(multiplicities, default=0)
        result["double_executions"] = sum(1 for m in multiplicities if m > 1)

        # Location-cache audit: every client discovered the crash by
        # timeout and forgot exactly the dead member.
        dead = pool.members[kill_index]
        cached = [locator.cache.get(pool.put_port) or ()
                  for locator in locators]
        result["clients_still_mapping_the_dead"] = sum(
            1 for members in cached if dead in members)
        result["survivors_cached"] = sorted(
            len(members) for members in cached)
    finally:
        pool.stop()
    return result


def check_kill_failover(result):
    failures = list(result["storm_errors"])
    if result["completed"] != result["transactions"]:
        failures.append("only %d/%d transactions completed"
                        % (result["completed"], result["transactions"]))
    if result["double_executions"]:
        failures.append(
            "a replica double-executed %d transactions (max multiplicity %d)"
            % (result["double_executions"],
               result["max_multiplicity_per_replica"]))
    if result["clients_still_mapping_the_dead"]:
        failures.append("%d clients still map the port to the killed replica"
                        % result["clients_still_mapping_the_dead"])
    survivors = result["replicas"] - 1
    if any(count != survivors for count in result["survivors_cached"]):
        failures.append("failover dropped a surviving member: %r"
                        % (result["survivors_cached"],))
    return failures


def replica_sim_flood(replicas=4, max_queue_depth=256, offered=20000):
    """Bounded-ingress overload of the replicated pool.

    The simulated network round-robins port-addressed frames among the
    listeners sharing the logical port, so the flood — and the traffic
    after it — spreads across all replicas while the single bounded
    queue drops-and-counts the excess.
    """
    net = SimNetwork(
        synchronous=False, auto_drain=False, max_queue_depth=max_queue_depth
    )
    pool = ReplicatedObjectServer(
        net, replicas=replicas, rng=RandomSource(5),
        server_cls=EchoReplicaServer,
    ).start()
    for server in pool.servers:
        server.count_requests = False
    client = Nic(net)
    out = flood(net, client, pool.put_port, offered)
    out["replicas"] = len(pool.servers)
    out["max_queue_depth"] = max_queue_depth
    out["served_after_flood"] = served_after(client, pool.put_port)
    pool.stop()
    return out


def check_sim_flood(result):
    failures = []
    if result["dropped_overflow"] <= 0:
        failures.append("the flood never hit the queue bound")
    if result["peak_depth"] > result["max_queue_depth"]:
        failures.append("queue depth %d exceeded its %d bound"
                        % (result["peak_depth"], result["max_queue_depth"]))
    if result["served_after_flood"] != 16:
        failures.append("the pool served %d of 16 after the flood"
                        % result["served_after_flood"])
    return failures


#: name -> (workload, check(result) -> [failures], CI-sized kwargs).
ARMS = {
    "replica_kill_failover": (replica_kill_failover, check_kill_failover,
                              {"per_thread": 10}),
    "replica_sim_flood": (replica_sim_flood, check_sim_flood,
                          {"offered": 4000}),
}
