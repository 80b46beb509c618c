"""Durability arms: what the write-ahead log recovers.

PR 8 gave object tables a life across reboots — every create/refresh/
destroy is appended to a log on a virtual disk, snapshots truncate the
log, and ``ObjectServer.reboot()`` replays the disk into a new
incarnation.  These arms check that layer's counts; what it costs
per transaction is the suite's ``durable_mutate``.

Arms (keys in ``BENCH_invariants.json``)
----------------------------------------
``recovery_time_vs_size``
    Kill a durable table at several sizes (half the state in the
    snapshot, half in the log's tail) and replay the disk into a fresh
    one: every entry must come back, and the records replayed and blocks
    in use are reported per size.
``recovery_kill_reboot``
    The acceptance scenario on the DES virtual-clock wire with seeded
    frame loss *and* seeded disk faults: a durable directory server
    loses power mid-snapshot, is respawned on the same disk, and the
    client fleet's retried non-idempotent writes land effectively once
    — zero double-executions, deterministic by double run.
"""

from repro.core.ports import Port
from repro.core.registry import ObjectTable
from repro.core.schemes import scheme_by_name
from repro.crypto.randomsrc import RandomSource
from repro.disk.diskfaults import DiskFaultPlan
from repro.disk.virtualdisk import VirtualDisk
from repro.disk.wal import DefaultCodec, DurableStore
from repro.errors import PowerFailure
from repro.ipc.rpc import RetryPolicy
from repro.net.faults import FaultPlan
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.net.sched import LatencyModel, VirtualClock
from repro.servers.directory import (
    DirectoryClient, DirectoryCodec, DirectoryServer,
)

from bench_des import PAPER_RTT_MS


# ----------------------------------------------------------------------
# recovery vs table size
# ----------------------------------------------------------------------


def _recovery_point(size, seed):
    port = Port(0x0BADC0FFEE00)
    scheme = scheme_by_name("xor-oneway")
    disk = VirtualDisk(max(1024, size * 2))
    store = DurableStore(disk, codec=DefaultCodec())
    table = ObjectTable(scheme, port, rng=RandomSource(seed=seed),
                        wal=store)
    caps = [table.create("object-%06d" % i) for i in range(size)]
    # Half the state lives in the snapshot, half in the log's tail — the
    # realistic mixture a crash interrupts.
    if size >= 2:
        store.snapshot(table)
        for cap in caps[: size // 8]:
            table.refresh(cap)

    cold = DurableStore(disk, codec=DefaultCodec())
    rebuilt = ObjectTable(scheme, port, rng=RandomSource(seed=seed + 1),
                          wal=cold)
    report = cold.recover(rebuilt, rng=RandomSource(seed=seed + 2))
    return {
        "entries": size,
        "entries_restored": report.entries_restored,
        "records_replayed": report.records_replayed,
        "used_blocks": cold.stats()["used_blocks"],
    }


def recovery_time_vs_size(sizes=(256, 1024, 4096), seed=41):
    """Attach + replay across table sizes."""
    return {"seed": seed,
            "points": [_recovery_point(size, seed) for size in sizes]}


# ----------------------------------------------------------------------
# kill and reboot under DES + seeded faults
# ----------------------------------------------------------------------


def _kill_reboot_run(n_pre, n_post, seed):
    plan = FaultPlan(seed=seed, drop=0.05)
    net = SimNetwork(clock=VirtualClock(),
                     latency=LatencyModel(rtt_ms=PAPER_RTT_MS),
                     faults=plan)
    disk = VirtualDisk(8192)
    server = DirectoryServer(
        Nic(net), rng=RandomSource(seed=1), dedup=True,
        store=DurableStore(disk, codec=DirectoryCodec()),
    ).start()
    server.count_requests = False
    root = server.create_root()
    client = DirectoryClient(
        Nic(net), server.put_port, rng=RandomSource(seed=2),
        expect_signature=server.signature_image,
        timeout=5.0, retry=RetryPolicy(attempts=10, rto=0.01, seed=seed),
    )
    for i in range(n_pre):
        client.create_directory(root, "pre-%04d" % i)

    # Power fails mid-snapshot: a half-written snapshot chain is left
    # on the disk, linked into nothing.
    disk.faults = DiskFaultPlan(power_fail_after=7)
    power_failed = False
    try:
        server.checkpoint()
    except PowerFailure:
        power_failed = True
    server.stop()
    disk.faults.revive()
    disk.faults = None

    # Respawn on the same disk with the same service identity.
    respawn = DirectoryServer(
        Nic(net), get_port=server.get_port, rng=RandomSource(seed=100 + seed),
        dedup=True, store=DurableStore(disk, codec=DirectoryCodec()),
    )
    report = respawn.reboot()
    respawn.start()
    respawn.count_requests = False
    client.expect_signature = respawn.signature_image

    # Old capabilities keep working (a power failure re-keys nothing);
    # the retried, non-idempotent writes must land exactly once each.
    for i in range(n_post):
        client.create_directory(root, "post-%04d" % i)
    listing = client.list(root)
    double_executions = len(listing) - len(set(listing))
    return {
        "seed": seed,
        "pre_crash_creates": n_pre,
        "post_crash_creates": n_post,
        "power_failed_mid_snapshot": power_failed,
        "entries_recovered": report.entries_restored,
        "suspect": report.suspect,
        "commits_recovered": len(report.commits),
        "blocks_reclaimed": report.blocks_reclaimed,
        "final_entries": len(listing),
        "double_executions": double_executions,
        "virtual_seconds": round(net.clock.now, 9),
        "faults": plan.stats(),
    }


def recovery_kill_reboot(n_pre=60, n_post=60, seed=43):
    """Kill-and-reboot on the DES wire; deterministic by double run."""
    result = _kill_reboot_run(n_pre, n_post, seed)
    again = _kill_reboot_run(n_pre, n_post, seed)
    result["deterministic"] = again == result
    result["recovered"] = (
        result["power_failed_mid_snapshot"]
        and result["entries_recovered"] == n_pre + 1
        and result["final_entries"] == n_pre + n_post
        and result["double_executions"] == 0
    )
    return result


def check_recovery_sizes(result):
    return ["recovered %d of %d entries" % (point["entries_restored"],
                                            point["entries"])
            for point in result["points"]
            if point["entries_restored"] != point["entries"]]


def check_kill_reboot(result):
    failures = []
    if not result["recovered"]:
        failures.append(
            "kill-and-reboot failed: power_failed=%s, %d entries recovered, "
            "%d final, %d double-executions"
            % (result["power_failed_mid_snapshot"],
               result["entries_recovered"], result["final_entries"],
               result["double_executions"]))
    if not result["deterministic"]:
        failures.append("kill-and-reboot double run diverged")
    return failures


#: name -> (workload, check(result) -> [failures], CI-sized kwargs).
ARMS = {
    "recovery_time_vs_size": (recovery_time_vs_size, check_recovery_sizes,
                              {"sizes": (128, 512)}),
    "recovery_kill_reboot": (recovery_kill_reboot, check_kill_reboot,
                             {"n_pre": 25, "n_post": 25}),
}
