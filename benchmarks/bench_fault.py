"""Fault-injection scenario benchmarks: the robustness story, measured.

Every other benchmark runs on a perfect wire.  These arms run the same
protocol stack over a seeded :class:`~repro.net.faults.FaultPlan` and
measure what the at-least-once layer (:class:`~repro.ipc.rpc.RetryPolicy`
client-side, :class:`~repro.ipc.server.ReplyCache` server-side) buys:

Arms (keys in ``BENCH_invariants.json``)
----------------------------------------
``fault_goodput_sweep``
    Retried echo transactions at 0/5/10/20% frame loss; goodput is
    completed transactions per frame on the wire — a count over a
    seeded wire, so it repeats exactly.  The bar: goodput at 10% loss
    stays >= 50% of lossless.
``fault_des_lossy``
    The DES virtual-clock wire at 10% loss + 1% duplication — the
    determinism-by-double-run contract must hold *with* faults, and
    retransmission backoff must show up as virtual time.
``fault_retry_storm``
    A client fleet bursting into PR 5's bounded ingress queue
    (deferred discipline): overflow drops requests, retries recover
    every one of them.
``fault_crash_recovery``
    A bank server crashes mid-session and is respawned on a fresh
    machine with the *same* put-port but regenerated secrets.  The
    client survives via locate invalidation on timeout, re-LOCATE, and
    re-opening its now-invalid capabilities.
``fault_bank_effectively_once``
    The acceptance scenario: thousands of retried, non-idempotent bank
    transfers under loss + duplication, with server-side dedup — the
    payee's balance must equal the completed count *exactly* and money
    must be conserved (zero double-executions).

All arms are seeded end to end and report counts and virtual time
only — what the same traffic costs in CPU is the suite's
``lossy_failover``.
"""

from repro.crypto.randomsrc import RandomSource
from repro.errors import InvalidCapability, NoSuchObject, RPCTimeout
from repro.ipc.locate import Locator, install_locate_responder
from repro.ipc.rpc import AsyncTrans, RetryPolicy, trans
from repro.ipc.stdops import USER_BASE
from repro.net.faults import FaultPlan
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.net.sched import LatencyModel, VirtualClock
from repro.servers.bank import BankClient, BankServer
from repro.testing.world import EchoServer

from bench_des import PAPER_RTT_MS


# ----------------------------------------------------------------------
# goodput vs loss
# ----------------------------------------------------------------------


def _goodput_point(n, loss, seed):
    plan = FaultPlan(seed=seed, drop=loss)
    net = SimNetwork(faults=plan)
    server = EchoServer(Nic(net), rng=RandomSource(seed=1), dedup=True).start()
    server.count_requests = False
    client = Nic(net)
    retry = RetryPolicy(attempts=10, seed=seed)
    completed = 0
    for i in range(n):
        try:
            trans(client, server.put_port,
                  Message(command=USER_BASE, data=b"payload"),
                  rng=RandomSource(seed=1000 + i), timeout=5.0, retry=retry)
            completed += 1
        except RPCTimeout:
            pass
    return {
        "loss": loss,
        "transactions": n,
        "completed": completed,
        "frames_sent": plan.frames_seen,
        "injected_drops": plan.injected_drops,
        "dedup_hits": server.reply_cache.stats()["hits"],
        "goodput": round(completed / plan.frames_seen, 6),
    }


def fault_goodput_sweep(n=300, loss_points=(0.0, 0.05, 0.10, 0.20), seed=17):
    """Retried echo goodput (completed per wire frame) across loss rates."""
    points = [_goodput_point(n, loss, seed) for loss in loss_points]
    lossless = points[0]["goodput"]
    for point in points:
        point["vs_lossless"] = round(point["goodput"] / lossless, 4)
    return {
        "transactions_per_point": n,
        "seed": seed,
        "points": points,
    }


# ----------------------------------------------------------------------
# DES determinism under loss
# ----------------------------------------------------------------------


def _des_lossy_run(n, drop, duplicate, seed):
    plan = FaultPlan(seed=seed, drop=drop, duplicate=duplicate,
                     delay=0.05, delay_ms=1.0)
    net = SimNetwork(clock=VirtualClock(),
                     latency=LatencyModel(rtt_ms=PAPER_RTT_MS),
                     faults=plan)
    server = EchoServer(Nic(net), rng=RandomSource(seed=1), dedup=True).start()
    server.count_requests = False
    client = Nic(net)
    retry = RetryPolicy(attempts=8, rto=0.01, seed=seed)
    for i in range(n):
        trans(client, server.put_port,
              Message(command=USER_BASE, data=b"%d" % i),
              rng=RandomSource(seed=2000 + i), timeout=10.0, retry=retry)
    return net.clock.now, plan.stats()


def fault_des_lossy(n=200, drop=0.10, duplicate=0.01, seed=23):
    """10% loss + 1% duplication on the DES wire, double-run checked."""
    virtual, stats = _des_lossy_run(n, drop, duplicate, seed)
    again = _des_lossy_run(n, drop, duplicate, seed)
    return {
        "transactions": n,
        "drop": drop,
        "duplicate": duplicate,
        "seed": seed,
        "virtual_seconds": round(virtual, 9),
        "virtual_ms_per_trans": round(virtual / n * 1e3, 6),
        "faults": stats,
        "deterministic": again == (virtual, stats),
    }


# ----------------------------------------------------------------------
# retry storm vs the bounded ingress queue
# ----------------------------------------------------------------------


def fault_retry_storm(clients=8, per_client=40, depth=16, seed=29):
    """A fleet bursts into a bounded-queue deferred network; overflow
    drops requests and the at-least-once layer recovers all of them."""
    plan = FaultPlan(seed=seed, drop=0.05)
    net = SimNetwork(synchronous=False, max_queue_depth=depth,
                     auto_drain=False, faults=plan)
    server = EchoServer(Nic(net), rng=RandomSource(seed=1), dedup=True).start()
    server.count_requests = False
    stations = [Nic(net) for _ in range(clients)]
    pending = []
    for c, station in enumerate(stations):
        retry = RetryPolicy(attempts=12, seed=seed + c)
        for i in range(per_client):
            pending.append(AsyncTrans(
                station, server.put_port,
                Message(command=USER_BASE, data=b"%d:%d" % (c, i)),
                rng=RandomSource(seed=3000 + c * per_client + i),
                retry=retry,
            ))
    completed = sum(1 for at in pending if at.result(timeout=5.0) is not None)
    loop_stats = net.stats().get("scheduler", {})
    return {
        "clients": clients,
        "per_client": per_client,
        "queue_depth": depth,
        "seed": seed,
        "transactions": clients * per_client,
        "completed": completed,
        "dropped_overflow": loop_stats.get("dropped_overflow", 0),
        "injected_drops": plan.injected_drops,
        "dedup_hits": server.reply_cache.stats()["hits"],
    }


# ----------------------------------------------------------------------
# crash and recovery
# ----------------------------------------------------------------------


def fault_crash_recovery(n_pre=25, n_post=25, seed=31):
    """Bank server crash + respawn: same put-port, regenerated secrets.

    The client rides out the crash with the full robustness tool chain:
    the timed-out call invalidates its locate cache, the next call
    re-broadcasts LOCATE and finds the respawned machine, the stale
    account capability is rejected by the regenerated object table, and
    a re-opened account completes the session.
    """
    net = SimNetwork(faults=FaultPlan(seed=seed, drop=0.02))
    server = BankServer(Nic(net), rng=RandomSource(seed=1), dedup=True).start()
    install_locate_responder(server.node)
    get_port = server.get_port
    client_nic = Nic(net)
    locator = Locator(client_nic, rng=RandomSource(seed=2))
    client = BankClient(client_nic, server.put_port,
                        rng=RandomSource(seed=3), locator=locator,
                        timeout=0.25, retry=RetryPolicy(attempts=6, seed=seed))
    central = server.create_account({"USD": 100_000}, mint_right=True)
    alice = client.open_account()
    pre_done = 0
    for _ in range(n_pre):
        client.transfer(central, alice, "USD", 1)
        pre_done += 1

    # Crash: the server's machine leaves the wire mid-session.
    net.detach(server.node.address)
    timed_out = False
    try:
        client.transfer(central, alice, "USD", 1)
    except RPCTimeout:
        timed_out = True  # and the locate cache entry was invalidated
    cache_invalidated = locator.cache.get(server.put_port) is None

    # Respawn: same service identity (put-port), fresh rng — the object
    # table secrets and the signature secret are regenerated.
    respawn = BankServer(Nic(net), rng=RandomSource(seed=100 + seed),
                         get_port=get_port, dedup=True).start()
    install_locate_responder(respawn.node)
    client.expect_signature = respawn.signature_image
    central2 = respawn.create_account({"USD": 100_000}, mint_right=True)

    # The old capability is dead — the regenerated table rejects it.
    stale_rejected = False
    try:
        client.balance(alice)
    except (InvalidCapability, NoSuchObject):
        stale_rejected = True
    relocated = locator.cache.get(server.put_port) == respawn.node.address

    # Re-open and finish the session on the respawned server.
    alice2 = client.open_account()
    post_done = 0
    for _ in range(n_post):
        client.transfer(central2, alice2, "USD", 1)
        post_done += 1
    recovered = (timed_out and cache_invalidated and stale_rejected
                 and relocated and post_done == n_post
                 and client.balance(alice2) == {"USD": n_post})
    return {
        "seed": seed,
        "pre_crash_transfers": pre_done,
        "post_crash_transfers": post_done,
        "timed_out_on_crash": timed_out,
        "locate_cache_invalidated": cache_invalidated,
        "stale_capability_rejected": stale_rejected,
        "relocated_to_respawn": relocated,
        "recovered": recovered,
    }


# ----------------------------------------------------------------------
# effectively-once transfers at scale
# ----------------------------------------------------------------------


def fault_bank_effectively_once(n=10_000, drop=0.10, duplicate=0.01, seed=37):
    """The acceptance arm: n retried transfers under loss + duplication
    with server-side dedup; the payee balance must equal n exactly."""
    plan = FaultPlan(seed=seed, drop=drop, duplicate=duplicate)
    net = SimNetwork(faults=plan)
    server = BankServer(Nic(net), rng=RandomSource(seed=1), dedup=True).start()
    server.count_requests = False
    client = BankClient(Nic(net), server.put_port, rng=RandomSource(seed=2),
                        expect_signature=server.signature_image,
                        timeout=5.0,
                        retry=RetryPolicy(attempts=12, seed=seed))
    central = server.create_account({"USD": n}, mint_right=True)
    alice = client.open_account()
    completed = 0
    for _ in range(n):
        client.transfer(central, alice, "USD", 1)
        completed += 1
    balance = client.balance(alice)["USD"]
    conserved = server.total_in_circulation("USD") == n
    cache = server.reply_cache.stats()
    return {
        "transfers": n,
        "drop": drop,
        "duplicate": duplicate,
        "seed": seed,
        "completed": completed,
        "payee_balance": balance,
        "exactly_once": balance == completed and conserved,
        "conserved": conserved,
        "dedup_hits": cache["hits"],
        "dedup_busy_drops": cache["busy_drops"],
        "injected_drops": plan.injected_drops,
        "injected_duplicates": plan.injected_duplicates,
    }


def check_goodput(result):
    at_ten = [p for p in result["points"] if p["loss"] == 0.10]
    if at_ten and at_ten[0]["vs_lossless"] < 0.5:
        return ["goodput at 10%% loss is %.2fx lossless (< 0.5x bar)"
                % at_ten[0]["vs_lossless"]]
    return []


def check_des_lossy(result):
    return [] if result["deterministic"] else ["lossy DES double run diverged"]


def check_retry_storm(result):
    failures = []
    if result["completed"] != result["transactions"]:
        failures.append("retry storm lost %d transactions"
                        % (result["transactions"] - result["completed"]))
    if result["dropped_overflow"] == 0:
        failures.append("retry storm never overflowed the queue (not a storm)")
    return failures


def check_crash_recovery(result):
    if result["recovered"]:
        return []
    return ["crash recovery failed: %r" % (result,)]


def check_effectively_once(result):
    if result["exactly_once"]:
        return []
    return ["a transfer double-executed or was lost: %d completed, payee "
            "balance %d, conserved=%s" % (result["completed"],
                                          result["payee_balance"],
                                          result["conserved"])]


#: name -> (workload, check(result) -> [failures], CI-sized kwargs).
ARMS = {
    "fault_goodput_sweep": (fault_goodput_sweep, check_goodput, {"n": 120}),
    "fault_des_lossy": (fault_des_lossy, check_des_lossy, {"n": 80}),
    "fault_retry_storm": (fault_retry_storm, check_retry_storm,
                          {"clients": 4, "per_client": 25}),
    "fault_crash_recovery": (fault_crash_recovery, check_crash_recovery,
                             {"n_pre": 10, "n_post": 10}),
    "fault_bank_effectively_once": (fault_bank_effectively_once,
                                    check_effectively_once, {"n": 1_500}),
}
