"""Chaos scenario sweep: composed faults, machine-checked invariants.

Every arm here runs a :class:`repro.testing.chaos.ScenarioRunner` world —
a replicated (or durable single) capability service on the DES virtual
wire — under a *timeline* of composed faults: partitions landing
mid-revocation-fan-out, a replica killed inside a drop burst, power
failing while the network is down, an intruder replaying captured
frames from the dark side of a cut.  Each scenario is drawn from one
seed, runs **twice**, and the two result dicts (trace included) must be
bit-identical — the determinism-by-double-run contract every DES
harness in this repo shares.

Arms (keys in ``BENCH_invariants.json``)
----------------------------------------
``chaos_matrix``
    The seeded scenario matrix: 7 families x 2-3 seeds = 20 scenarios,
    every invariant checked continuously and at quiesce, zero
    violations tolerated, every scenario deterministic by double run
    and hashing to its line of ``chaos_digests.json``.
``chaos_partition_disciplines``
    The partition primitive demonstrated on all three delivery
    disciplines (synchronous, deferred event loop, DES): a transaction
    succeeds, the link is severed and the same transaction times out,
    the link heals and it succeeds again.

Scenario families
-----------------
``partition_revocation_fanout``
    One replica is isolated *while* a REFRESH revokes the workload's
    capability; the fan-out to the dark replica fails, the partition
    heals, ``reconcile()`` re-drives it — and the revoked capability
    must then validate nowhere (no phantom authority).
``kill_primary_mid_storm``
    Replica 0 crashes inside a client-side drop burst; the workload
    survives by failover and the survivors stay convergent.
``asymmetric_partition``
    Only the server->client direction is cut: requests execute, acks
    are lost, retries fail over — per-replica effectively-once must
    hold even though the pool as a whole is at-least-once.
``power_fail_during_partition``
    Durable single server: the client is partitioned away, power fails
    mid-checkpoint, the network heals, the server reboots from its WAL
    — every acked increment must survive (durability).
``intruder_replay_mid_partition``
    An intruder taps the wire, the capability is refreshed (revoking
    the captured one), the legitimate client is partitioned away, and
    the intruder replays its captures — zero executions may land.
``delegation_chain``
    A->B->C multi-hop delegation, each hop restricting rights before
    forwarding, with a replica partitioned and healed mid-chain; the
    final capability must carry *exactly* the intended rights
    everywhere (read works, write is denied, nothing lost).
``drop_burst_partition``
    Background loss + a per-link drop/delay burst + a replica isolated
    and healed, all composed over one timeline.
"""

import hashlib
import json
import os

from repro.crypto.randomsrc import RandomSource
from repro.errors import PermissionDenied, RPCTimeout
from repro.ipc.rpc import trans
from repro.ipc.stdops import USER_BASE
from repro.net.faults import FaultPlan
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.net.sched import LatencyModel, VirtualClock
from repro.testing.chaos import (
    CMD_GET,
    CMD_INCR,
    RIGHT_READ,
    RIGHT_WRITE,
    STANDARD_INVARIANTS,
    ScenarioRunner,
    acked_implies_executed,
    conservation,
    durability,
    effectively_once,
    no_intruder_executions,
    no_lost_authority,
    no_phantom_authority,
)
from repro.testing.world import EchoServer


# ----------------------------------------------------------------------
# the scenario families (one function per family, seeded)
# ----------------------------------------------------------------------


def _scn_partition_revocation_fanout(seed):
    r = ScenarioRunner("partition_revocation_fanout", seed)
    old_cap = r.capability
    state = {"fresh": None}
    r.at(0.25, "isolate_r2", lambda: r.isolate_replica(2))
    r.at(0.30, "refresh", lambda: state.__setitem__("fresh", r.refresh()))
    r.at(0.90, "rejoin_r2", lambda: r.rejoin_replica(2))
    r.at(0.95, "reconcile", r.reconcile)
    r.continuously(*STANDARD_INVARIANTS[:3])
    r.run_ops(6, spacing=0.05)
    r.run_ops(8, capability=state["fresh"], spacing=0.05)
    r.quiesce()
    r.check(*STANDARD_INVARIANTS)
    r.check(no_phantom_authority(old_cap))
    if state["fresh"] is not None:
        r.check(no_lost_authority(state["fresh"]))
    return r.result()


def _scn_kill_primary_mid_storm(seed):
    r = ScenarioRunner("kill_primary_mid_storm", seed, client_timeout=0.8)
    r.at(0.20, "burst", lambda: r.burst(r.client_machine, drop=0.3))
    r.at(0.30, "kill_r0", lambda: r.kill_replica(0))
    r.at(0.80, "calm", lambda: r.calm(r.client_machine))
    r.continuously(*STANDARD_INVARIANTS[:3])
    r.run_ops(12, spacing=0.07)
    r.quiesce()
    r.check(*STANDARD_INVARIANTS)
    return r.result()


def _scn_asymmetric_partition(seed):
    r = ScenarioRunner("asymmetric_partition", seed, client_timeout=0.6)

    def cut_ack_path():
        # Requests still arrive and execute; only the replies die.
        r.plan.partition(r.machines, [r.client_machine], symmetric=False)

    def heal_ack_path():
        r.plan.heal_partition(r.machines, [r.client_machine])

    r.at(0.25, "cut_ack_path", cut_ack_path)
    r.at(0.85, "heal_ack_path", heal_ack_path)
    r.continuously(effectively_once, acked_implies_executed)
    r.run_ops(10, spacing=0.06)
    r.quiesce()
    r.check(*STANDARD_INVARIANTS)
    return r.result()


def _scn_power_fail_during_partition(seed):
    r = ScenarioRunner("power_fail_during_partition", seed,
                       replicas=1, durable=True, client_timeout=0.6,
                       retry_attempts=2)
    r.at(0.20, "partition_client", r.partition_client)
    r.at(0.35, "power_fail", lambda: r.power_fail(after_writes=1))
    r.at(0.55, "heal_client", r.heal_client)
    r.continuously(effectively_once, conservation)
    r.run_ops(8, spacing=0.06)
    r.reboot_server()
    r.run_ops(4, spacing=0.03)
    r.quiesce()
    # acked_implies_executed is per-incarnation (the respawn's log starts
    # empty); across a reboot the durability checker carries that burden.
    r.check(effectively_once, conservation, durability)
    return r.result()


def _scn_intruder_replay_mid_partition(seed):
    r = ScenarioRunner("intruder_replay_mid_partition", seed)
    old_cap = r.capability
    state = {"fresh": None}
    r.start_capture()
    r.run_ops(5, spacing=0.04)  # the intruder captures these INCRs
    r.at(0.40, "refresh", lambda: state.__setitem__("fresh", r.refresh()))
    r.at(0.55, "partition_client", r.partition_client)
    r.at(0.60, "replay", r.replay_captured)
    r.at(0.80, "heal_client", r.heal_client)
    r.run_ops(6, spacing=0.08)
    r.run_ops(3, capability=state["fresh"], spacing=0.05)
    r.quiesce()
    r.check(*STANDARD_INVARIANTS)
    r.check(no_intruder_executions, no_phantom_authority(old_cap))
    if state["fresh"] is not None:
        r.check(no_lost_authority(state["fresh"]))
    return r.result()


def _scn_delegation_chain(seed):
    r = ScenarioRunner("delegation_chain", seed)
    alice = r._make_client("alice")
    bob = r._make_client("bob")
    carol = r._make_client("carol")
    # Hop 1: the owner keeps read+write for Bob.
    cap_b = alice.restrict(r.capability, int(RIGHT_READ | RIGHT_WRITE))
    r.note("delegate", "alice->bob rights=0x%02x" % int(cap_b.rights))
    # A replica drops out and rejoins *between* the hops — restriction
    # is fabricated from mirrored secrets, so the chain must not care.
    r.isolate_replica(1)
    r.note("action", "isolate_r1")
    cap_c = bob.restrict(cap_b, int(RIGHT_READ))
    r.note("delegate", "bob->carol rights=0x%02x" % int(cap_c.rights))
    r.rejoin_replica(1)
    r.note("action", "rejoin_r1")
    r.reconcile()
    # End to end: exactly the intended rights survived the chain.
    value = int(carol.call(CMD_GET, capability=cap_c).data)
    r.note("delegate", "carol reads %d" % value)
    try:
        carol.call(CMD_INCR, capability=cap_c)
    except PermissionDenied:
        r.note("delegate", "carol write denied")
    else:
        r.violations.append(
            "delegation: read-only hop capability allowed a write"
        )
    r.run_ops(4, spacing=0.03)
    r.quiesce()
    r.check(*STANDARD_INVARIANTS)
    r.check(no_lost_authority(cap_c, RIGHT_READ))
    return r.result()


def _scn_drop_burst_partition(seed):
    r = ScenarioRunner("drop_burst_partition", seed, drop=0.05,
                       client_timeout=0.8)
    r.at(0.15, "burst",
         lambda: r.burst(r.client_machine, drop=0.35, delay=0.2))
    r.at(0.35, "isolate_r2", lambda: r.isolate_replica(2))
    r.at(0.70, "rejoin_r2", lambda: r.rejoin_replica(2))
    r.at(0.80, "calm", lambda: r.calm(r.client_machine))
    r.continuously(effectively_once, conservation, acked_implies_executed)
    r.run_ops(12, spacing=0.06)
    r.quiesce()
    r.check(*STANDARD_INVARIANTS)
    return r.result()


#: The matrix: (family function, seeds).  7 families x 2-3 seeds = 20
#: scenarios; every one runs twice and must replay bit-identically.
SCENARIO_MATRIX = (
    (_scn_partition_revocation_fanout, (11, 12, 13)),
    (_scn_kill_primary_mid_storm, (21, 22, 23)),
    (_scn_asymmetric_partition, (31, 32, 33)),
    (_scn_power_fail_during_partition, (41, 42, 43)),
    (_scn_intruder_replay_mid_partition, (51, 52, 53)),
    (_scn_delegation_chain, (61, 62)),
    (_scn_drop_burst_partition, (71, 72, 73)),
)


def _run_matrix():
    """Every scenario of the matrix, run twice: a list of ``(result,
    replayed)`` where ``replayed`` says the second run's result dict
    (trace included) equalled the first's."""
    runs = []
    for family, seeds in SCENARIO_MATRIX:
        for seed in seeds:
            result = family(seed)
            runs.append((result, family(seed) == result))
    return runs


def chaos_matrix():
    """Run the full scenario matrix, each scenario twice (determinism),
    and hold every result against its recorded digest.  CI smoke keeps
    the full matrix: the scenarios are virtual-time, so wall cost is
    compute only."""
    runs = _run_matrix()
    summary = _summarise(runs)
    recorded = {}  # no file: every scenario reads "no recorded digest"
    if os.path.exists(DIGESTS_PATH):
        with open(DIGESTS_PATH) as handle:
            recorded = json.load(handle)
    summary["digest_mismatches"] = digest_mismatches(
        [result for result, _ in runs], recorded)
    return summary


def check_matrix(result):
    failures = []
    if result["scenarios"] < 20:
        failures.append("only %d scenarios (< 20 bar)" % result["scenarios"])
    for violation in result["violations"]:
        failures.append("invariant violation: %s" % violation)
    for name in result["nondeterministic"]:
        failures.append("double run diverged: %s" % name)
    for line in result["digest_mismatches"]:
        failures.append("digest mismatch: %s" % line)
    return failures


def write_digests():
    """Record every scenario's result digest in ``chaos_digests.json`` —
    for a change that *means* to alter behaviour, and says why.  Refuses
    (returning the failures) while the matrix itself does not hold."""
    runs = _run_matrix()
    summary = _summarise(runs)
    summary["digest_mismatches"] = []
    failures = check_matrix(summary)
    if not failures:
        with open(DIGESTS_PATH, "w") as handle:
            json.dump(scenario_digests([result for result, _ in runs]),
                      handle, indent=1, sort_keys=True)
            handle.write("\n")
    return failures


def _key(result):
    return "%s@%d" % (result["name"], result["seed"])


def _summarise(runs):
    results = [result for result, _ in runs]
    nondeterministic = [
        _key(result) for result, replayed in runs if not replayed
    ]
    violations = [
        "%s: %s" % (_key(r), violation)
        for r in results for violation in r["violations"]
    ]
    return {
        "scenarios": len(results),
        "families": len(SCENARIO_MATRIX),
        "acked": sum(r["acked"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "violations": violations,
        "nondeterministic": nondeterministic,
        "deterministic": not nondeterministic,
        "per_scenario": [
            {
                "name": r["name"],
                "seed": r["seed"],
                "acked": r["acked"],
                "failed": r["failed"],
                "partition_drops": r["faults"].get("partition_drops", 0),
                "virtual_seconds": r["virtual_seconds"],
            }
            for r in results
        ],
    }


# ----------------------------------------------------------------------
# the behaviour-preservation oracle
# ----------------------------------------------------------------------

#: Recorded digests of every scenario's full result.  A refactor must
#: leave this file byte-identical; a change that means to alter
#: behaviour regenerates it (``run_bench.py --write-digests``) and says
#: why.
DIGESTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "chaos_digests.json"
)


def _sha256(value):
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode("utf-8")
    ).hexdigest()


def scenario_digests(results):
    """``name@seed`` -> the SHA-256 of the whole result dict (trace and
    fault counters included), plus a short digest per trace entry so a
    mismatch can name the first entry that moved."""
    return {
        _key(r): {
            "sha256": _sha256(r),
            "trace": [_sha256(entry)[:12] for entry in r["trace"]],
        }
        for r in results
    }


def digest_mismatches(results, recorded):
    """One line per scenario whose result no longer hashes to what
    ``recorded`` (a loaded ``chaos_digests.json``) says."""
    current = scenario_digests(results)
    lines = ["%s: recorded but no longer in the matrix" % key
             for key in sorted(set(recorded) - set(current))]
    for r in results:
        key = _key(r)
        want = recorded.get(key)
        if want is None:
            lines.append("%s: no recorded digest" % key)
        elif want["sha256"] != current[key]["sha256"]:
            lines.append("%s: %s" % (key, _first_difference(
                r["trace"], current[key]["trace"], want["trace"])))
    return lines


def _first_difference(trace, have, want):
    for index, (mine, theirs) in enumerate(zip(have, want)):
        if mine != theirs:
            return "trace entry %d is now %r" % (index, trace[index])
    if len(have) > len(want):
        return "trace grew from %d entries; first new one is %r" % (
            len(want), trace[len(want)])
    if len(have) < len(want):
        return "trace ends after %d of %d entries" % (len(have), len(want))
    return "trace unchanged; a counter outside it moved"


# ----------------------------------------------------------------------
# the partition primitive on every delivery discipline
# ----------------------------------------------------------------------


def _discipline_world(discipline, plan):
    if discipline == "des":
        net = SimNetwork(
            clock=VirtualClock(),
            latency=LatencyModel(rtt_ms=2.8, jitter_ms=0.2, seed=5),
            faults=plan,
        )
    else:
        net = SimNetwork(synchronous=(discipline == "synchronous"),
                         faults=plan)
    server = EchoServer(Nic(net), rng=RandomSource(seed=5)).start()
    client = Nic(net)
    return net, server, client


def _echo_once(client, server, payload, timeout=0.25):
    reply = trans(
        client,
        server.put_port,
        Message(command=USER_BASE, data=payload),
        rng=RandomSource(seed=9),
        timeout=timeout,
    )
    return reply.data == payload


def chaos_partition_disciplines():
    """Sever/heal on all three disciplines: ok -> timeout -> ok again."""
    out = {}
    for discipline in ("synchronous", "deferred", "des"):
        plan = FaultPlan(seed=5)
        net, server, client = _discipline_world(discipline, plan)
        before = _echo_once(client, server, b"pre-cut")
        plan.sever(src=client.address, dst=server.node.address)
        cut_timed_out = False
        try:
            _echo_once(client, server, b"mid-cut")
        except RPCTimeout:
            cut_timed_out = True
        plan.heal(src=client.address, dst=server.node.address)
        after = _echo_once(client, server, b"post-heal")
        stats = plan.stats()
        out[discipline] = {
            "before_cut_ok": before,
            "cut_timed_out": cut_timed_out,
            "healed_ok": after,
            "partition_drops": stats["partition_drops"],
            "by_link": stats["by_link"],
        }
    return out


def check_disciplines(result):
    failures = []
    for discipline, row in sorted(result.items()):
        if not (row["before_cut_ok"] and row["cut_timed_out"]
                and row["healed_ok"]):
            failures.append(
                "partition primitive broken on %s: %r" % (discipline, row))
        if row["partition_drops"] <= 0:
            failures.append("no partition drops counted on %s" % discipline)
    return failures


#: name -> (workload, check(result) -> [failures], CI-sized kwargs).
ARMS = {
    "chaos_matrix": (chaos_matrix, check_matrix, {}),
    "chaos_partition_disciplines": (chaos_partition_disciplines,
                                    check_disciplines, {}),
}
