"""The seven workloads.

Each builds its own world from ``seed`` and drives it in *slices* of a
fixed transaction count; the measuring loop (``run.py``) calibrates
between slices and groups ``slices_per_round`` of them into a round, so
that every round holds exactly one period of whatever the workload does
periodically (one checkpoint, one kill/revive cycle).  The program under
test sees only generated inputs; every reply is checked, and a
transaction that fails, times out or is *wrongly admitted* counts in
``failed``.  A forged or revoked capability that is refused is a
success.

Closed loop, one client thread.  BENCHMARK.json records what each
workload is for; README.md says which layers it bypasses.
"""

import os
import pickle
import random
import resource
import select
import subprocess
import sys
import time
from bisect import bisect
from itertools import accumulate

from repro.crypto.randomsrc import RandomSource
from repro.disk.virtualdisk import VirtualDisk
from repro.disk.wal import DurableStore
from repro.errors import AmoebaError, InvalidCapability
from repro.ipc import rpc
from repro.ipc.locate import Locator
from repro.ipc.replica import ReplicaObjectServer, ReplicatedObjectServer
from repro.ipc.rpc import RetryPolicy
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE
from repro.net.faults import FaultPlan
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.net.sockets import SocketNode
from repro.core.ports import Port
from repro.servers.directory import (
    DirectoryClient,
    DirectoryCodec,
    DirectoryServer,
)
from repro.servers.flatfile import R_READ, FlatFileClient, FlatFileServer

_now = time.perf_counter_ns


class EchoServer(ObjectServer):
    service_name = "suite echo"

    @command(USER_BASE)
    def _echo(self, ctx):
        return ctx.ok(data=ctx.request.data)


class CountingReplica(ReplicaObjectServer):
    """Echo that counts handler executions: with duplicate suppression
    working, executions over all replicas equal completed transactions."""

    service_name = "suite counting replica"
    executions = 0

    @command(USER_BASE)
    def _count(self, ctx):
        self.executions += 1
        return ctx.ok(data=ctx.request.data)


class Workload:
    """Common shape; see the module docstring."""

    name = ""
    #: ObjectServer subclasses whose handlers the traced pass instruments.
    server_classes = ()
    slices_per_round = 1
    warm_slices = 4

    def __init__(self, seed):
        self.seed = seed
        self.random = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        #: Set by the traced pass before ``build``.  Only a workload
        #: with a second process reads it (to install the wrappers
        #: there too).
        self.traced = False

    def rng(self, stream):
        """A seeded randomness source for one part of the stack."""
        return RandomSource(seed=self.seed * 64 + stream)

    def build(self):
        raise NotImplementedError

    def slice(self, index, latencies):
        """Run one slice (``index`` counts within the round), appending
        each transaction's wall latency in ns to ``latencies``."""
        raise NotImplementedError

    def warm(self):
        """A fixed count of transactions that fills caches and lazy
        state; part of set-up, not of the measured phase."""
        sink = []
        for i in range(self.warm_slices * self.slices_per_round):
            self.slice(i % self.slices_per_round, sink)

    def cpu_ns(self):
        """Process CPU time of every process of the workload."""
        return time.process_time_ns()

    def frames(self):
        """Frames put on the wire by all stations so far."""
        return self.net.frames_sent

    def disk_writes(self):
        """Block writes so far (0 where there is no store)."""
        return 0

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def stats(self):
        """Public counters of the layers, under the keys
        ``layers.span_metrics`` reads."""
        out = {"frames_dropped": self.net.frames_dropped,
               "broadcasts": self.net.broadcasts}
        loop = self.net.loop
        if loop is not None:
            sched = loop.stats()
            out["sched_max_depth"] = sched["max_depth_seen"]
            out["sched_dropped_overflow"] = sched["dropped_overflow"]
        return out

    def finish(self):
        """End-of-run correctness check; adds to ``failed``."""

    def close(self):
        """Stop whatever ``build`` started."""

    def _timed(self, latencies, call, *args):
        """``call(*args)`` as one transaction; None (and a failure) on
        any library error."""
        self.attempted += 1
        start = _now()
        try:
            result = call(*args)
        except AmoebaError:
            self.failed += 1
            return None
        latencies.append(_now() - start)
        return result

    def _batches(self, latencies, node, port, **options):
        """``slice_batches`` batches of ``trans_many`` with
        ``self.requests`` in flight; one batch is one latency sample."""
        trans_many = rpc.trans_many
        inflight = len(self.requests)
        for _ in range(self.slice_batches):
            self.attempted += inflight
            start = _now()
            try:
                replies = trans_many(node, port, self.requests,
                                     self.client_rng, **options)
            except AmoebaError:
                self.failed += inflight
                continue
            latencies.append(_now() - start)
            for reply, payload in zip(replies, self.payloads):
                if reply.data != payload or reply.status:
                    self.failed += 1

    def _refused(self, latencies, call, *args):
        """One transaction that must be refused as an invalid
        capability; being admitted is the failure."""
        self.attempted += 1
        start = _now()
        try:
            call(*args)
        except InvalidCapability:
            latencies.append(_now() - start)
            return
        except AmoebaError:
            pass
        self.failed += 1


class SimEcho(Workload):
    name = "sim_echo"
    server_classes = (EchoServer,)
    slice_transactions = 400

    def build(self):
        self.payload = self.random.randbytes(7)
        self.net = SimNetwork()
        self.server = EchoServer(Nic(self.net), rng=self.rng(1)).start()
        self.server.count_requests = False
        self.client = Nic(self.net)
        self.client_rng = self.rng(2)
        self.request = Message(command=USER_BASE, data=self.payload)

    def slice(self, index, latencies):
        trans = rpc.trans
        client, port, request = self.client, self.server.put_port, self.request
        rng, payload = self.client_rng, self.payload
        expect = self.server.signature_image
        failed = 0
        for _ in range(self.slice_transactions):
            start = _now()
            try:
                reply = trans(client, port, request, rng,
                              expect_signature=expect)
            except AmoebaError:
                failed += 1
                continue
            latencies.append(_now() - start)
            if reply.data != payload or reply.status:
                failed += 1
        self.attempted += self.slice_transactions
        self.failed += failed


class SimPipelined16(Workload):
    name = "sim_pipelined16"
    server_classes = (EchoServer,)
    inflight = 16
    slice_batches = 25

    def build(self):
        self.payloads = [self.random.randbytes(7)
                         for _ in range(self.inflight)]
        self.net = SimNetwork(synchronous=False, auto_drain=False)
        self.server = EchoServer(Nic(self.net), rng=self.rng(1)).start()
        self.server.count_requests = False
        self.client = Nic(self.net)
        self.client_rng = self.rng(2)
        self.requests = [Message(command=USER_BASE, data=p)
                         for p in self.payloads]

    def slice(self, index, latencies):
        self._batches(latencies, self.client, self.server.put_port,
                      expect_signature=self.server.signature_image)


def _zipf_sampler(rnd, count):
    """A function drawing from ``range(count)`` with weight 1/(rank+1),
    ranks assigned by a seeded shuffle."""
    order = list(range(count))
    rnd.shuffle(order)
    cumulative = list(accumulate(1.0 / (rank + 1) for rank in range(count)))
    total = cumulative[-1]
    return lambda: order[bisect(cumulative, rnd.random() * total)]


class FileRW(Workload):
    name = "file_rw"
    server_classes = (FlatFileServer,)
    file_size = 4096
    io_size = 1024
    write_share = 0.10
    slice_transactions = 200
    tape_length = 8192

    def __init__(self, seed, files=4096):
        super().__init__(seed)
        self.files = files

    def build(self):
        rnd = self.random
        self.net = SimNetwork()
        self.server = FlatFileServer(Nic(self.net), rng=self.rng(1)).start()
        self.server.count_requests = False
        self.client = FlatFileClient(
            Nic(self.net), self.server.put_port, rng=self.rng(2),
            expect_signature=self.server.signature_image,
        )
        # The shadow model: what each file must hold.
        self.shadow = [bytearray(rnd.randbytes(self.file_size))
                       for _ in range(self.files)]
        self.caps = [self.client.create(bytes(content))
                     for content in self.shadow]
        draw = _zipf_sampler(rnd, self.files)
        span = self.file_size - self.io_size
        self.tape = [(draw(), rnd.randrange(span + 1),
                      rnd.random() < self.write_share)
                     for _ in range(self.tape_length)]
        self.blocks = [rnd.randbytes(self.io_size) for _ in range(64)]
        self.position = 0

    def slice(self, index, latencies):
        client, io = self.client, self.io_size
        for _ in range(self.slice_transactions):
            position = self.position
            self.position = position + 1
            number, offset, is_write = self.tape[position % self.tape_length]
            content = self.shadow[number]
            if is_write:
                block = self.blocks[position % len(self.blocks)]
                size = self._timed(latencies, client.write,
                                   self.caps[number], offset, block)
                if size is not None:
                    content[offset:offset + io] = block
                    if size != self.file_size:
                        self.failed += 1
            else:
                data = self._timed(latencies, client.read,
                                   self.caps[number], offset, io)
                if data is not None and data != content[offset:offset + io]:
                    self.failed += 1

    def finish(self):
        for number in self.random.sample(range(self.files),
                                         min(64, self.files)):
            if (self.client.read_all(self.caps[number])
                    != self.shadow[number]):
                self.failed += 1


class CapChurn(Workload):
    name = "cap_churn"
    server_classes = (FlatFileServer,)
    slice_iterations = 80
    refresh_every = 8
    #: More restrict masks than an entry's verified memo holds (16), so
    #: a revisited object's sub-capability is validated cold again.
    masks = 64

    def __init__(self, seed, objects=1024):
        super().__init__(seed)
        self.objects = objects

    def build(self):
        rnd = self.random
        self.net = SimNetwork()
        self.server = FlatFileServer(Nic(self.net), rng=self.rng(1)).start()
        self.server.count_requests = False
        self.client = FlatFileClient(
            Nic(self.net), self.server.put_port, rng=self.rng(2),
            expect_signature=self.server.signature_image,
        )
        self.contents = [rnd.randbytes(64) for _ in range(self.objects)]
        self.owners = [self.client.create(c) for c in self.contents]
        self.order = list(range(self.objects))
        rnd.shuffle(self.order)
        self.visits = [0] * self.objects
        self.iteration = 0

    def _read(self, capability):
        return self.client.read(capability, 0, 64)

    def slice(self, index, latencies):
        client = self.client
        for _ in range(self.slice_iterations):
            iteration = self.iteration
            self.iteration = iteration + 1
            number = self.order[iteration % self.objects]
            visit = self.visits[number]
            self.visits[number] = visit + 1
            mask = R_READ | ((visit % self.masks) << 1)
            owner = self.owners[number]
            content = self.contents[number]
            sub = self._timed(latencies, client.restrict, owner, mask)
            if sub is None:
                continue
            for _ in range(2):  # cold verify, then the memo
                if self._timed(latencies, self._read, sub) not in (
                        None, content):
                    self.failed += 1
            check = bytearray(sub.check)
            check[iteration % len(check)] ^= 1 << (iteration % 8)
            self._refused(latencies, self._read, sub.with_check(check))
            if iteration % self.refresh_every == self.refresh_every - 1:
                fresh = self._timed(latencies, client.refresh, owner)
                if fresh is not None:
                    self.owners[number] = fresh
                    self._refused(latencies, self._read, sub)

    def finish(self):
        for number, owner in enumerate(self.owners):
            if self._read(owner) != self.contents[number]:
                self.failed += 1


class DurableMutate(Workload):
    name = "durable_mutate"
    server_classes = (DirectoryServer,)
    slices_per_round = 2
    slice_iterations = 40
    #: Names resident at any time: an update record logs the whole
    #: directory, so its size is part of the workload definition.
    resident = 16

    def build(self):
        self.net = SimNetwork()
        self.disk = VirtualDisk(16384)
        self.server = DirectoryServer.durable(
            Nic(self.net), disk=self.disk, rng=self.rng(1)).start()
        self.server.count_requests = False
        self.root = self.server.create_root()
        self.client = DirectoryClient(
            Nic(self.net), self.server.put_port, rng=self.rng(2),
            expect_signature=self.server.signature_image,
        )
        self.target = self.client.create_directory()
        self.shadow = {}
        self.counter = 0
        self.tag = "%04x" % self.random.randrange(1 << 16)

    def _name(self, counter):
        return "%s-%08d" % (self.tag, counter)

    def slice(self, index, latencies):
        client, root, target = self.client, self.root, self.target
        for _ in range(self.slice_iterations):
            counter = self.counter
            self.counter = counter + 1
            name = self._name(counter)
            self._timed(latencies, client.enter, root, name, target)
            self.shadow[name] = target
            found = self._timed(latencies, client.lookup, root, name)
            if found is not None and found != target:
                self.failed += 1
            if counter >= self.resident:
                old = self._name(counter - self.resident)
                self._timed(latencies, client.remove, root, old)
                del self.shadow[old]
        if index == self.slices_per_round - 1:
            self.server.checkpoint()

    def stats(self):
        out = super().stats()
        store = self.server.store.stats()
        out["wal_records"] = store["records_appended"]
        out.update(_dedup_stats([self.server]))
        return out

    def disk_writes(self):
        return self.disk.writes

    def finish(self):
        """Reboot from the disk alone and compare with the shadow."""
        self.server.stop()
        net = SimNetwork()
        store = DurableStore(self.disk, codec=DirectoryCodec())
        reborn = DirectoryServer(
            Nic(net), store=store, dedup=True, rng=self.rng(3),
            get_port=self.server.get_port, signature=self.server.signature,
        )
        reborn.reboot()
        reborn.start()
        client = DirectoryClient(
            Nic(net), reborn.put_port, rng=self.rng(4),
            expect_signature=reborn.signature_image,
        )
        try:
            if sorted(client.list(self.root)) != sorted(self.shadow):
                self.failed += 1
            for name, capability in self.shadow.items():
                if client.lookup(self.root, name) != capability:
                    self.failed += 1
        except AmoebaError:
            self.failed += 1


def _dedup_stats(servers):
    totals = {"dedup_hits": 0, "dedup_misses": 0, "dedup_busy_drops": 0}
    for server in servers:
        cache = server.reply_cache.stats()
        totals["dedup_hits"] += cache["hits"]
        totals["dedup_misses"] += cache["misses"]
        totals["dedup_busy_drops"] += cache["busy_drops"]
    return totals


class LossyFailover(Workload):
    name = "lossy_failover"
    server_classes = (CountingReplica,)
    slices_per_round = 6
    slice_transactions = 100
    kill_slice = 2
    revive_slice = 4
    warm_slices = 1

    def build(self):
        self.plan = FaultPlan(seed=self.seed, drop=0.05, duplicate=0.01)
        self.net = SimNetwork(faults=self.plan)
        self.service = ReplicatedObjectServer(
            self.net, replicas=3, rng=self.rng(1),
            server_cls=CountingReplica, server_kwargs={"dedup": True},
        ).start()
        for server in self.service.servers:
            server.count_requests = False
        self.client = Nic(self.net)
        self.client_rng = self.rng(2)
        self.locator = Locator(self.client, rng=self.rng(3))
        self.policy = RetryPolicy(attempts=12, seed=self.seed)
        self.expect = self.service.signature.public
        self.victim = 0
        self.sequence = 0

    def slice(self, index, latencies):
        service, port = self.service, self.service.put_port
        if index == self.kill_slice:
            service.kill(self.victim)
        elif index == self.revive_slice:
            service.servers[self.victim].start()
            self.locator.invalidate(port)
            self.victim = (self.victim + 1) % len(service.servers)
        for _ in range(self.slice_transactions):
            self.sequence += 1
            payload = self.sequence.to_bytes(8, "big")
            reply = self._timed(latencies, self._transact,
                                Message(command=USER_BASE, data=payload))
            if reply is not None and (reply.data != payload or reply.status):
                self.failed += 1

    def _transact(self, request):
        # Seven broadcasts before giving up: a LOCATE or its HERE is
        # lost one time in ten, and no operation of a run may fail.
        replicas = self.locator.locate(self.service.put_port, retries=6)
        return rpc.trans(
            self.client, self.service.put_port, request, self.client_rng,
            expect_signature=self.expect, dst_machine=replicas,
            retry=self.policy, locator=self.locator,
        )

    def stats(self):
        out = super().stats()
        faults = self.plan.stats()
        out["injected_drops"] = faults["injected_drops"]
        out["injected_duplicates"] = faults["injected_duplicates"]
        out["locate_hits"] = self.locator.hits
        out["locate_misses"] = self.locator.misses
        out["fanout_sent"] = sum(s.fanout_sent for s in self.service.servers)
        out.update(_dedup_stats(self.service.servers))
        return out

    def finish(self):
        executed = sum(s.executions for s in self.service.servers)
        if executed != self.attempted - self.failed:
            self.failed += abs(executed - (self.attempted - self.failed))


def _udp_echo_server(seed, traced):
    """Body of the UDP workload's server process (this file run as a
    program).  Requests come pickled on standard input and answers go
    pickled to standard output.

    Answers ``"stats"`` with its CPU time, frame count and peak RSS,
    ``"spans"`` with its span aggregates, ``"fold"`` by folding the span
    logs, ``"reset"`` by clearing the aggregates; anything else, or a
    closed pipe, stops it.
    """
    requests = os.fdopen(os.dup(0), "rb")
    answers = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # a stray print must not land among the answers

    def send(answer):
        pickle.dump(answer, answers)
        answers.flush()

    tracer = None
    if traced:
        import layers
        import spans

        tracer = spans.Tracer(full_transactions=0)
        layers.install(tracer, [EchoServer])
    node = SocketNode(buffer_egress=True)
    try:
        server = EchoServer(node, rng=RandomSource(seed=seed))
        server.count_requests = False
        server.start()
        send((node.address, server.put_port.value,
              server.signature_image.value))
        while True:
            try:
                request = pickle.load(requests)
            except EOFError:
                break
            if request == "stats":
                send({
                    "cpu_ns": time.process_time_ns(),
                    "sent": node.sent,
                    "rss_kb": resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss,
                })
            elif request == "spans":
                send(tracer.aggregates() if tracer else None)
            elif request in ("reset", "fold"):
                if tracer:
                    getattr(tracer, request)()
                send(None)
            else:
                break
    finally:
        node.close()


class UdpPipelined16(Workload):
    name = "udp_pipelined16"
    server_classes = (EchoServer,)
    inflight = 16
    slice_batches = 25
    timeout = 10.0

    def __init__(self, seed):
        super().__init__(seed)
        self.process = None
        self.client = None
        self.affinity = None

    def build(self):
        # Both processes on one CPU (the server inherits the mask).
        # Left to the scheduler they share a CPU for a minute, then sit
        # on two for a minute, and on two a transaction costs 30-40%
        # more CPU time (a cross-CPU wake-up per hand-off; measured 51
        # against 72 us), so runs a minute apart disagreed by that much.
        # Client and server strictly alternate, so one CPU loses
        # nothing: CPU time equals wall time either way.
        if hasattr(os, "sched_setaffinity"):
            self.affinity = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {max(self.affinity)})
        self.payloads = [self.random.randbytes(7)
                         for _ in range(self.inflight)]
        # A plain child process with two pipes, not multiprocessing:
        # that starts a resource tracker of its own, which outlives
        # the run.  The server stops when its standard input closes,
        # so it cannot outlive this process either.
        self.process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__),
             str(self.seed * 64 + 1), str(int(self.traced))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                entry for entry in sys.path if entry)),
        )
        if not select.select([self.process.stdout], [], [], 60.0)[0]:
            raise RuntimeError("the UDP echo server did not come up")
        address, put_value, signature_value = pickle.load(
            self.process.stdout)
        self.address = tuple(address)
        self.put_port = Port(put_value)
        self.expect = Port(signature_value)
        self.client = SocketNode(buffer_egress=True)
        self.client_rng = self.rng(2)
        self.requests = [Message(command=USER_BASE, data=p)
                         for p in self.payloads]

    def _ask(self, request):
        pickle.dump(request, self.process.stdin)
        self.process.stdin.flush()
        return pickle.load(self.process.stdout)

    def slice(self, index, latencies):
        self._batches(latencies, self.client, self.put_port,
                      timeout=self.timeout, expect_signature=self.expect,
                      dst_machine=self.address)

    def serial_rtt_ns(self, count=300):
        """Wall round-trip times of ``count`` serial transactions —
        informational: on a two-CPU box this measures the scheduler."""
        request = self.requests[0]
        times = []
        for _ in range(count):
            start = _now()
            rpc.trans(self.client, self.put_port, request, self.client_rng,
                      timeout=self.timeout, expect_signature=self.expect,
                      dst_machine=self.address)
            times.append(_now() - start)
        return times

    def server_stats(self):
        return self._ask("stats")

    def cpu_ns(self):
        return time.process_time_ns() + self.server_stats()["cpu_ns"]

    def frames(self):
        return self.client.sent + self.server_stats()["sent"]

    def peak_rss_kb(self):
        return super().peak_rss_kb() + self.server_stats()["rss_kb"]

    def stats(self):
        return {}

    def reset_server_spans(self):
        self._ask("reset")

    def fold_server_spans(self):
        self._ask("fold")

    def server_spans(self):
        return self._ask("spans")

    def close(self):
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.process is not None:
            try:
                self.process.stdin.close()  # end of input stops it
            except OSError:
                pass
            try:
                self.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.process.stdout.close()
            self.process = None
        if self.affinity is not None:
            os.sched_setaffinity(0, self.affinity)
            self.affinity = None


WORKLOADS = {
    cls.name: cls
    for cls in (SimEcho, SimPipelined16, FileRW, CapChurn, DurableMutate,
                LossyFailover, UdpPipelined16)
}


if __name__ == "__main__":
    _udp_echo_server(int(sys.argv[1]), bool(int(sys.argv[2])))
