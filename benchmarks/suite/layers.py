"""Which public functions are span points, the per-layer metrics computed
from the spans, and direct-drive timing of the leaf functions.

A span is named ``<group>:<function>``; a group is a module of
``src/repro`` (``net.fbox``) or, where one module plays several roles, a
role within it (``net.nic.egress``).  Metrics are summed by group
prefix.  The direct-drive leaves replace the legacy ``stage_timings``
(one-way warm/cold, F-box egress, pack, unpack) and add the capability
codec, the four schemes' ``verify`` and raw F.
"""

import time

from repro.core.capability import Capability
from repro.core.ports import Port
from repro.core.registry import ObjectTable
from repro.core.rights import ALL_RIGHTS
from repro.core.schemes import (
    CommutativeScheme,
    EncryptedRightsScheme,
    ProtectionScheme,
    SimpleCheckScheme,
    XorOneWayScheme,
    all_scheme_names,
    scheme_by_name,
)
from repro.crypto.oneway import OneWayFunction
from repro.crypto.randomsrc import RandomSource
from repro.disk.virtualdisk import VirtualDisk
from repro.disk.wal import DurableStore
from repro.ipc import rpc
from repro.ipc.client import ServiceClient
from repro.ipc.locate import Locator
from repro.ipc.replica import ReplicaSet
from repro.ipc.server import ObjectServer, ReplyCache
from repro.ipc.stdops import USER_BASE
from repro.net.fbox import FBox
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.net.sched import EventLoop
from repro.net.sockets import SocketNode

import contract
import estimators

#: (class, group, methods).  Only methods the class itself defines.
METHOD_SPANS = [
    (ServiceClient, "ipc.client", ["call"]),
    (Locator, "ipc.locate", ["locate"]),
    (ReplicaSet, "ipc.replica", ["select"]),
    (ReplyCache, "ipc.server.dedup", ["begin", "store"]),
    (ObjectTable, "core.registry",
     ["lookup", "create", "restrict", "refresh", "destroy", "persist",
      "log_commit"]),
    (ProtectionScheme, "core.schemes", ["restrict"]),
    (SimpleCheckScheme, "core.schemes", ["verify", "mint", "restrict"]),
    (EncryptedRightsScheme, "core.schemes", ["verify", "mint"]),
    (XorOneWayScheme, "core.schemes", ["verify", "mint"]),
    (CommutativeScheme, "core.schemes", ["verify", "mint"]),
    (OneWayFunction, "crypto.oneway", ["raw", "apply_bytes"]),
    (FBox, "net.fbox",
     ["transform_egress_owned", "transform_egress", "one_way",
      "one_way_batch"]),
    (Nic, "net.nic.listen",
     ["listen", "listen_fresh", "unlisten_wire", "unlisten"]),
    (Nic, "net.nic.egress",
     ["put", "put_owned", "put_owned_bulk", "put_owned_unicast_bulk",
      "put_many", "put_broadcast"]),
    (Nic, "net.nic.ingress",
     ["accept", "accept_run", "accept_broadcast", "poll_wire", "take_many"]),
    (SimNetwork, "net.network",
     ["send", "send_bulk", "send_unicast_bulk", "broadcast"]),
    (EventLoop, "net.sched", ["pump"]),
    (Message, "net.message", ["pack", "unpack"]),
    (SocketNode, "net.sockets",
     ["put", "put_owned", "put_owned_bulk", "put_owned_unicast_bulk",
      "flush_egress", "reply_queues", "listen", "listen_fresh",
      "unlisten_wire", "unlisten_wire_many", "poll_wire"]),
    (DurableStore, "disk.wal",
     ["log_create", "log_update", "log_refresh", "log_destroy",
      "log_commit", "snapshot"]),
    (VirtualDisk, "disk.virtualdisk", ["write"]),
]

#: Spans that record more than time: every checkpoint's duration, and
#: the payload bytes of every block write (``write(self, block, data)``).
SPAN_OPTIONS = {
    "disk.wal:snapshot": {"keep_durations": True},
    "disk.virtualdisk:write": {"weigh": lambda args: len(args[2])},
}


def install(tracer, server_classes):
    """Install every span point; ``server_classes`` are the workload's
    ObjectServer subclasses (their ``@command`` handlers are traced, and
    the inherited standard operations with them)."""
    tracer.install_function(rpc, "trans", "ipc.rpc:trans",
                            keep_durations=True)
    tracer.install_function(rpc, "trans_many", "ipc.rpc:trans_many",
                            keep_durations=True)
    for owner, group, methods in METHOD_SPANS:
        for method in methods:
            name = "%s:%s" % (group, method)
            tracer.install(owner, method, name, **SPAN_OPTIONS.get(name, {}))
    for station in (Nic, SocketNode):
        tracer.install_serve(station, "ipc.server:handle")
    seen = set()
    for server_class in server_classes:
        for klass in server_class.__mro__:
            if issubclass(klass, ObjectServer) and klass not in seen:
                seen.add(klass)
                tracer.install_handlers(klass, "servers.handler")


# ----------------------------------------------------------------------
# the per-layer metrics (BENCHMARK.json lists them)
# ----------------------------------------------------------------------
#
# ``self_us`` is corrected self time per completed transaction at
# reference host speed; every ``count`` is per completed transaction
# except ``net.sched.max_depth`` (a high-water mark) and
# ``ipc.rpc.p99_samples``; ``*_us`` with a size or scheme suffix is
# direct-drive time per call.


def _share(part, whole):
    return part / whole if whole else 0.0


def span_metrics(tracer, cost, transactions, scale, stats):
    """The per-layer metrics that come from spans and public counters.

    ``cost`` is ``(inner ns, outer ns)`` per wrapper, ``transactions``
    the completed transactions of the traced phase, ``scale`` the factor
    from measured ns to reference-speed ns, ``stats`` the workload's
    public counters (see ``Workload.stats``).  Server-process spans of
    the UDP workload must already be merged into ``tracer``.
    """
    per = 1.0 / transactions

    def self_us(prefix):
        return tracer.self_ns(prefix, cost) * scale * per / 1000.0

    def calls(prefix):
        return tracer.count(prefix) * per

    out = {}
    for name in contract.names("per_layer"):
        group, _, kind = name.rpartition(".")
        if kind == "self_us" and group != "harness":
            out[name] = self_us(group)
        elif kind == "calls":
            out[name] = calls(group)
    # Not the dedup spans with them: one request, one handler call.
    out["ipc.server.calls"] = calls("ipc.server:handle")
    out["net.nic.listen_self_us"] = self_us("net.nic.listen")
    out["net.nic.egress_self_us"] = self_us("net.nic.egress")
    out["net.nic.ingress_self_us"] = self_us("net.nic.ingress")
    # The server process's socket spans are merged under
    # ``net.sockets.server:`` (see run._traced_phase).
    out["net.sockets.client_self_us"] = self_us("net.sockets:")

    # A transaction that is not itself a replica fan-over puts one
    # request on the wire; every further put under it is a retransmit.
    trans_all = tracer.count("ipc.rpc:trans")
    nested = tracer.pair_count("ipc.rpc:trans", "ipc.rpc:trans")
    leaf = trans_all - nested if trans_all > nested else trans_all
    puts = tracer.pair_count("ipc.rpc:trans", "net.nic.egress") \
        + tracer.pair_count("ipc.rpc:trans", "net.sockets:put")
    out["ipc.rpc.retransmits"] = max(0, puts - leaf) * per
    fanned = tracer.pair_count("ipc.rpc:trans", "ipc.replica:select")
    out["ipc.replica.failovers"] = max(0, nested - fanned) * per

    roots = []
    for index in tracer.indexes("ipc.rpc:"):
        roots.extend(tracer.durations.get(index, ()))
    if roots:
        inner = cost[0]
        _, p99, samples = estimators.tail(roots)
        out["ipc.rpc.p99_us"] = max(0.0, p99 - inner) * scale / 1000.0
        out["ipc.rpc.p99_samples"] = samples
        # Every wrapper that ran sits inside some root span, bar the
        # roots' own outer halves.
        wrappers = (tracer.span_count() * sum(cost) - len(roots) * cost[1])
        out["ipc.rpc.wall_us_per_trans"] = (
            (sum(roots) - wrappers) * scale * per / 1000.0)
    else:
        out["ipc.rpc.p99_us"] = 0.0
        out["ipc.rpc.p99_samples"] = 0
        out["ipc.rpc.wall_us_per_trans"] = 0.0

    lookups = tracer.count("core.registry:lookup")
    verified = tracer.pair_count("core.registry:lookup", "core.schemes:verify")
    out["core.registry.memo_hit_share"] = (
        1.0 - _share(verified, lookups) if lookups else 0.0
    )
    # Image lookups: two per egress transform, one per one_way called
    # from elsewhere, one per port of a batch (fresh ports: all misses).
    transforms = tracer.count("net.fbox:transform_egress_owned")
    one_way = tracer.count("net.fbox:one_way")
    from_transform = tracer.pair_count("net.fbox:transform_egress_owned",
                                       "net.fbox:one_way")
    batch_raw = tracer.pair_count("net.fbox:one_way_batch",
                                  "crypto.oneway:raw")
    misses = tracer.pair_count("net.fbox", "crypto.oneway:raw")
    out["net.fbox.image_miss_share"] = _share(
        misses, 2 * transforms + (one_way - from_transform) + batch_raw
    )

    out["net.sched.pumps"] = calls("net.sched:pump")
    out["net.sockets.flushes"] = (
        calls("net.sockets:flush_egress")
        + calls("net.sockets.server:flush_egress"))
    snapshots = []
    for index in tracer.indexes("disk.wal:snapshot"):
        snapshots.extend(tracer.durations.get(index, ()))
    out["disk.wal.checkpoints"] = len(snapshots) * per
    out["disk.wal.checkpoint_ms"] = (
        sum(snapshots) * scale / len(snapshots) / 1e6 if snapshots else 0.0
    )
    writes = tracer.indexes("disk.virtualdisk:write")
    n_writes = sum(tracer.calls[i] for i in writes)
    out["disk.virtualdisk.payload_bytes_per_write"] = _share(
        sum(tracer.weight[i] for i in writes), n_writes
    )

    # Public counters the layers already keep.
    out["ipc.locate.hit_share"] = _share(
        stats.get("locate_hits", 0),
        stats.get("locate_hits", 0) + stats.get("locate_misses", 0),
    )
    out["ipc.locate.broadcasts"] = stats.get("broadcasts", 0) * per
    out["ipc.replica.fanout_sent"] = stats.get("fanout_sent", 0) * per
    dedup_seen = (stats.get("dedup_hits", 0) + stats.get("dedup_misses", 0)
                  + stats.get("dedup_busy_drops", 0))
    out["ipc.server.dedup_hit_share"] = _share(
        stats.get("dedup_hits", 0), dedup_seen
    )
    out["ipc.server.dedup_busy_drops"] = stats.get("dedup_busy_drops", 0) * per
    out["net.network.frames_dropped"] = stats.get("frames_dropped", 0) * per
    out["net.sched.max_depth"] = stats.get("sched_max_depth", 0)
    out["net.sched.dropped_overflow"] = (
        stats.get("sched_dropped_overflow", 0) * per
    )
    out["net.faults.injected_drops"] = stats.get("injected_drops", 0) * per
    out["net.faults.injected_duplicates"] = (
        stats.get("injected_duplicates", 0) * per
    )
    out["net.sockets.server_cpu_us"] = (
        stats.get("server_cpu_ns", 0) * scale * per / 1000.0
    )
    out["disk.wal.records"] = stats.get("wal_records", 0) * per
    out["disk.virtualdisk.writes"] = n_writes * per
    # Over the same fixed rounds as in the untraced pass, so the two
    # passes agree to the last digit.
    out["disk_writes_per_trans"] = stats.get("disk_writes_per_trans", 0.0)
    return out


# ----------------------------------------------------------------------
# direct drive
# ----------------------------------------------------------------------

_clock = time.perf_counter_ns


def _per_call_us(fn, items, budget_ns=40_000_000):
    """Time ``fn(item)`` over ``items`` (cycled) for about ``budget_ns``;
    microseconds per call at reference host speed, best of the passes
    (a leaf is a fixed instruction count; noise only adds)."""
    best = None
    spent = 0
    while spent < budget_ns:
        before = estimators.calibrate()
        start = _clock()
        for item in items:
            fn(item)
        elapsed = _clock() - start
        after = estimators.calibrate()
        spent += elapsed + before + after
        value = estimators.normalise(elapsed / len(items),
                                     (before + after) / 2.0)
        if best is None or value < best:
            best = value
    return best / 1000.0


def _message(size):
    return Message(dest=Port(7), reply=Port(8), signature=Port(9),
                   command=USER_BASE, data=b"d" * size)


def direct_drive(seed):
    """Leaf functions timed on their own, outside any workload."""
    rng = RandomSource(seed=seed)
    out = {}
    n = 2000

    fbox = FBox()
    warm = Port(424242)
    fbox.one_way(warm)
    out["net.fbox.one_way_warm_us"] = _per_call_us(fbox.one_way, [warm] * n)
    cold_box = FBox(OneWayFunction())
    out["net.fbox.one_way_cold_us"] = _per_call_us(
        cold_box.one_way, [Port.random(rng) for _ in range(n)],
        budget_ns=1)  # one pass: a second would find the images cached
    message = _message(128)
    out["net.fbox.transform_us"] = _per_call_us(
        fbox.transform_egress, [message] * n)
    oneway = OneWayFunction()
    out["crypto.oneway.raw_us"] = _per_call_us(
        oneway.raw, [rng.bits(48) for _ in range(n)])

    for size in (7, 1024):
        message = _message(size)
        raw = fbox.transform_egress(message).pack()
        out["net.message.pack_us.%d" % size] = _per_call_us(
            lambda m: m.pack(), [message] * n)
        out["net.message.unpack_us.%d" % size] = _per_call_us(
            Message.unpack, [raw] * n)

    port = Port(0xC0FFEE)
    scheme = XorOneWayScheme()
    secrets = [scheme.new_secret(rng) for _ in range(n)]

    def fresh_capabilities():
        # pack() caches its image on the instance, so each timed call
        # needs a capability that has never been packed.
        return [Capability(port, i, *scheme.mint(secret, ALL_RIGHTS))
                for i, secret in enumerate(secrets)]

    out["core.capability.pack_us"] = _per_call_us(
        lambda c: c.pack(), fresh_capabilities(), budget_ns=1)
    packed = [c.pack() for c in fresh_capabilities()]
    out["core.capability.unpack_us"] = _per_call_us(Capability.unpack, packed)

    for name in all_scheme_names():
        scheme = scheme_by_name(name)
        # The commutative scheme's modular exponentiation is ~1000x the
        # others; fewer triples keep its set-up bounded.
        count = 20 if name == "commutative" else 500
        triples = []
        for _ in range(count):
            secret = scheme.new_secret(rng)
            rights, check = scheme.mint(secret, ALL_RIGHTS)
            triples.append((secret, rights, check))
        # mint has warmed F's memo, as restrict/mint do in a server
        # before the sub-capability is first presented.
        out["core.schemes.verify_us.%s" % name] = _per_call_us(
            lambda t: scheme.verify(*t), triples)
    return out
