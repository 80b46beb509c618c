"""Replicated-service benchmarks: one logical port, N OS processes.

Three workloads (stable keys in ``BENCH_throughput.json``):

``replica_udp_aggregate_4``
    Aggregate echo throughput of a 4-process forked
    :class:`ReplicatedObjectServer` over loopback UDP — four client
    threads, each pinned to one replica — against the same four threads
    hammering a 1-process pool.
    ``scaling_x`` is the aggregate ratio.  On a single-CPU CI box the
    ratio stays near 1 (every process shares one core and the syscall
    path is already amortized); on real hardware it approaches N.  The
    point of the workload is the *shape* of the number, as with the PR 3
    fork benchmarks.

``replica_kill_failover``
    The acceptance scenario: a 4-process pool under a multi-threaded
    client retry storm; one replica is SIGKILLed mid-storm.  Asserts —
    hard, in both full and smoke runs — that every transaction
    completes (clients re-locate and fail over), that no replica ever
    double-executes a transaction (per-replica ReplyCache dedup), and
    that each client forgot exactly the dead member from its location
    cache, keeping the survivors.

``replica_sim_flood``
    The PR 5 overload experiment run against the replica pool: a
    port-addressed flood into a bounded ingress queue (the simulated
    network round-robins the logical port across all replicas), with
    drop-and-count at the bound and a post-flood recovery measurement.
"""

import json
import threading
import time

from repro.crypto.randomsrc import RandomSource
from repro.errors import RPCTimeout
from repro.ipc import stdops
from repro.ipc.client import ServiceClient
from repro.ipc.locate import Locator
from repro.ipc.replica import (
    ReplicaObjectServer,
    ReplicatedObjectServer,
)
from repro.ipc.rpc import RetryPolicy, trans, trans_many
from repro.ipc.server import command
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.net.sockets import SocketNode

#: Generous per-transaction budget: failover burns candidate timeout
#: slices before succeeding, and CI boxes stall; a real loss still
#: fails loudly.
_TIMEOUT = 8.0


class EchoReplicaServer(ReplicaObjectServer):
    """Replica data plane plus the echo op the throughput arms drive."""

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


def _pinned_echo_threads(addresses, put_port, expect_signature, n, payload,
                         threads_per_member=1):
    """Drive serial echo round trips from one thread per (replica,
    lane) pair, each thread unicast-pinned to its replica.  Returns
    (aggregate wall seconds, total transactions)."""
    errors = []
    workers = []
    start = threading.Barrier(
        len(addresses) * threads_per_member + 1
    )

    def body(address, seed):
        node = SocketNode()
        try:
            rng = RandomSource(seed)
            request = Message(command=stdops.USER_BASE, data=payload)
            trans(node, put_port, request, rng, timeout=_TIMEOUT,
                  expect_signature=expect_signature, dst_machine=address)
            start.wait()
            for _ in range(n):
                trans(node, put_port, request, rng, timeout=_TIMEOUT,
                      expect_signature=expect_signature, dst_machine=address)
        except Exception as exc:  # pragma: no cover - surfaced in caller
            errors.append(exc)
        finally:
            node.close()

    for lane in range(threads_per_member):
        for i, address in enumerate(addresses):
            worker = threading.Thread(
                target=body, args=(address, 1000 + 31 * lane + i)
            )
            worker.start()
            workers.append(worker)
    start.wait()
    begin = time.perf_counter()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - begin
    if errors:
        raise errors[0]
    return elapsed, n * len(workers)


def replica_udp_aggregate(replicas=4, n=400, payload=b"payload"):
    """Aggregate N-process pool throughput vs a 1-process pool."""
    pool = ReplicatedObjectServer(
        replicas=replicas, objects=1, server_cls=EchoReplicaServer,
        rng=RandomSource(b"bench-aggregate"),
    )
    try:
        pooled_s, pooled_n = _pinned_echo_threads(
            pool.addresses, pool.put_port, pool.signature.public, n, payload
        )
    finally:
        pool.stop()
    single = ReplicatedObjectServer(
        replicas=1, objects=1, server_cls=EchoReplicaServer,
        rng=RandomSource(b"bench-aggregate-single"),
    )
    try:
        # Same client parallelism (N threads), one server process.
        single_s, single_n = _pinned_echo_threads(
            single.addresses * replicas, single.put_port,
            single.signature.public, n, payload,
        )
    finally:
        single.stop()
    pooled_rate = pooled_n / pooled_s
    single_rate = single_n / single_s
    return {
        "replicas": replicas,
        "transactions": pooled_n,
        "pool_trans_per_sec": round(pooled_rate, 1),
        "single_process_trans_per_sec": round(single_rate, 1),
        "scaling_x": round(pooled_rate / single_rate, 3) if single_rate else 0.0,
    }


def replica_kill_failover(replicas=4, client_threads=4, per_thread=24,
                          kill_index=1, payload_prefix="txn"):
    """Kill one of N mid-storm; assert completion, dedup, invalidation."""
    if per_thread < 2 * replicas + 2:
        # The post-kill phase must cover at least one full round-robin
        # rotation per client, so every client provably encounters the
        # dead member and fails over.
        per_thread = 2 * replicas + 2
    pool = ReplicatedObjectServer(
        replicas=replicas, objects=1, server_cls=RecordReplicaServer,
        rng=RandomSource(b"bench-failover"),
    )
    total = client_threads * per_thread
    pre_kill = per_thread // 2
    completed = []
    completed_lock = threading.Lock()
    failures = []
    locators = []
    # The kill lands between the two storm phases: every client has
    # completed half its transactions, the rest happen against a pool
    # with one freshly SIGKILLed member.
    phase_done = threading.Barrier(client_threads + 1)
    resume = threading.Event()
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
                    txn = "%s-%d-%d" % (payload_prefix, thread_index, i)
                    client.call(RecordReplicaServer.RECORD,
                                data=txn.encode("utf-8"))
                    with completed_lock:
                        completed.append(txn)
            except Exception as exc:
                failures.append((thread_index, exc))
                try:
                    phase_done.abort()
                except Exception:
                    pass
                resume.set()
            finally:
                node.close()

        workers = [
            threading.Thread(target=storm, args=(t,))
            for t in range(client_threads)
        ]
        for worker in workers:
            worker.start()
        phase_done.wait()  # every client finished its pre-kill half
        pool.kill(kill_index)
        resume.set()
        for worker in workers:
            worker.join()

        assert not failures, "storm transactions failed: %r" % failures[:3]
        assert len(completed) == total, (
            "only %d/%d transactions completed" % (len(completed), total)
        )

        # Per-replica dedup audit: ask every surviving replica for its
        # execution record; any transaction executed twice on one
        # replica is a correctness failure.
        audit_node = SocketNode()
        try:
            multiplicities = []
            recorded = set()
            for index, address in enumerate(pool.addresses):
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
                recorded.update(record)
                multiplicities.extend(record.values())
            max_multiplicity = max(multiplicities) if multiplicities else 0
            assert max_multiplicity <= 1, (
                "a replica double-executed a transaction (max multiplicity %d)"
                % max_multiplicity
            )
        finally:
            audit_node.close()

        # Location-cache audit: every client discovered the crash by
        # timeout and forgot exactly the dead member.
        dead = pool.addresses[kill_index]
        survivors_cached = []
        for locator in locators:
            cached = locator.cache.get(pool.put_port)
            assert cached is not None and dead not in cached, (
                "a client still maps the port to the killed replica"
            )
            survivors_cached.append(len(cached))
        assert all(count == replicas - 1 for count in survivors_cached), (
            "failover dropped a surviving member: %r" % survivors_cached
        )
    finally:
        pool.stop()
    return {
        "replicas": replicas,
        "transactions": total,
        "completed": len(completed),
        "executions_seen": len(recorded),
        "max_multiplicity_per_replica": max_multiplicity,
        "double_executions": sum(1 for m in multiplicities if m > 1),
        "survivors_cached": survivors_cached,
    }


def replica_sim_flood(replicas=4, max_queue_depth=256, flood=20000,
                      inflight=16, batches=40, warmup=8):
    """Bounded-ingress overload of the replicated pool (PR 5 rerun).

    The simulated network round-robins port-addressed frames among the
    listeners sharing the logical port, so the flood — and the recovery
    traffic — spreads across all replicas while the single bounded
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
    rng = RandomSource(seed=9)
    requests = [Message(command=stdops.USER_BASE, data=b"payload")] * inflight

    def pipelined_rate():
        begin = time.perf_counter()
        for _ in range(batches):
            trans_many(client, pool.put_port, requests, rng)
        return inflight * batches / (time.perf_counter() - begin)

    for _ in range(warmup):
        trans_many(client, pool.put_port, requests, rng)
    pre = pipelined_rate()
    net.reset_stats()
    flood_message = Message(command=stdops.USER_BASE, data=b"x" * 32)
    wire = pool.put_port
    accepted = 0
    for _ in range(flood):
        if client.put(flood_message.copy(dest=wire)):
            accepted += 1
    stats = net.loop.stats()
    net.pump()  # the pool sheds and serves the backlog
    post = pipelined_rate()
    served = sum(1 for s in pool.servers)
    pool.stop()
    dropped = stats["dropped_overflow"]
    assert dropped > 0, "the flood never hit the queue bound"
    assert stats["max_depth_seen"] <= max_queue_depth
    return {
        "replicas": served,
        "max_queue_depth": max_queue_depth,
        "offered": flood,
        "accepted": accepted,
        "dropped_overflow": dropped,
        "peak_depth": stats["max_depth_seen"],
        "pre_flood_trans_per_sec": round(pre, 1),
        "post_flood_trans_per_sec": round(post, 1),
        "post_flood_ratio": round(post / pre, 3) if pre else 0.0,
    }


#: Registry merged into run_bench.py's workload table.
WORKLOADS = {
    "replica_udp_aggregate_4": replica_udp_aggregate,
    "replica_kill_failover": replica_kill_failover,
    "replica_sim_flood": replica_sim_flood,
}

#: CI-sized overrides, same shape as bench_throughput.SMOKE_OVERRIDES.
SMOKE_OVERRIDES = {
    "replica_udp_aggregate_4": {"n": 60},
    "replica_kill_failover": {"per_thread": 10},
    "replica_sim_flood": {"flood": 4000, "batches": 8, "warmup": 2},
}


def main(argv=None):
    """Stand-alone entry point (``make bench-replica-smoke``).

    Runs all three workloads — the failover arm's assertions are the CI
    bar: completion of every transaction, zero per-replica
    double-executions, and member-wise invalidation.  Never writes
    ``BENCH_throughput.json`` (that is ``run_bench.py``'s job).
    """
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized iteration counts")
    args = parser.parse_args(argv)
    for name, workload in WORKLOADS.items():
        kwargs = SMOKE_OVERRIDES.get(name, {}) if args.smoke else {}
        result = workload(**kwargs)
        print("  %-26s %s" % (name, json.dumps(result, sort_keys=True)))
    print("  replica-kill failover: all transactions completed, "
          "zero per-replica double-executions")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
