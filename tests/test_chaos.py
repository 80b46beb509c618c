"""Tests for partitions, DES timers, and the chaos engine.

The contracts under test:

* the partition primitive (:meth:`FaultPlan.sever` / ``heal`` /
  ``isolate`` / ``partition``) severs and heals links on all three
  delivery disciplines — synchronous, deferred event loop, and the DES
  virtual-clock wire — with directed (egress-only, ingress-only,
  pairwise) cuts, and every partitioned frame is counted per link;
* :meth:`VirtualTimeLoop.call_at` timers ride the DES event heap:
  they fire at their virtual instants, in order, even scheduled from
  inside a running step;
* whole-pool silence surfaces as :class:`PartitionSuspected` (a
  *network* verdict, still an :class:`RPCTimeout`), single-server
  silence stays a plain timeout, and a suspecting
  :class:`Locator` re-broadcasts LOCATE so a heal is *observed*;
* the chaos engine replays bit-identically per seed, its invariant
  checkers actually fire on seeded violations, and the multi-hop
  delegation scenario preserves exactly the intended rights across a
  partition-and-heal.
"""

import pytest

from repro.crypto.randomsrc import RandomSource
from repro.errors import PartitionSuspected, PermissionDenied, RPCTimeout
from repro.ipc.stdops import USER_BASE
from repro.net.faults import FaultPlan
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.sched import LatencyModel, VirtualClock
from repro.testing.chaos import (
    CMD_GET,
    CMD_INCR,
    RIGHT_READ,
    RIGHT_WRITE,
    STANDARD_INVARIANTS,
    ScenarioRunner,
    effectively_once,
    no_lost_authority,
    no_phantom_authority,
)
from repro.testing.world import EchoServer, World


def world(discipline, plan):
    w = World(discipline, faults=plan,
              latency=LatencyModel(rtt_ms=2.8, jitter_ms=0.2, seed=3))
    server = EchoServer(w.node(), rng=RandomSource(seed=3)).start()
    return w.net, server, w.node()


def echo(client, server, payload, timeout=0.25):
    from repro.ipc.rpc import trans

    reply = trans(
        client,
        server.put_port,
        Message(command=USER_BASE, data=payload),
        rng=RandomSource(seed=7),
        timeout=timeout,
    )
    assert reply.data == payload


DISCIPLINES = ("synchronous", "deferred", "des")


class TestPartitionPrimitive:
    @pytest.mark.parametrize("discipline", DISCIPLINES)
    def test_pairwise_sever_and_heal(self, discipline):
        plan = FaultPlan(seed=1)
        net, server, client = world(discipline, plan)
        echo(client, server, b"before")
        plan.sever(src=client.address, dst=server.node.address)
        assert plan.has_partitions
        with pytest.raises(RPCTimeout):
            echo(client, server, b"during")
        plan.heal(src=client.address, dst=server.node.address)
        assert not plan.has_partitions
        echo(client, server, b"after")
        assert plan.stats()["partition_drops"] >= 1

    @pytest.mark.parametrize("discipline", DISCIPLINES)
    def test_egress_cut_silences_a_machine(self, discipline):
        plan = FaultPlan(seed=1)
        net, server, client = world(discipline, plan)
        plan.sever(src=client.address)  # (client, *): nothing leaves
        with pytest.raises(RPCTimeout):
            echo(client, server, b"egress")
        plan.heal(src=client.address)
        echo(client, server, b"healed")

    @pytest.mark.parametrize("discipline", DISCIPLINES)
    def test_ingress_cut_deafens_a_machine(self, discipline):
        plan = FaultPlan(seed=1)
        net, server, client = world(discipline, plan)
        plan.sever(dst=server.node.address)  # (*, server): nothing arrives
        with pytest.raises(RPCTimeout):
            echo(client, server, b"ingress")
        plan.heal(dst=server.node.address)
        echo(client, server, b"healed")

    def test_isolate_and_rejoin(self):
        plan = FaultPlan(seed=1)
        net, server, client = world("synchronous", plan)
        plan.isolate(server.node.address)
        with pytest.raises(RPCTimeout):
            echo(client, server, b"dark")
        plan.rejoin(server.node.address)
        echo(client, server, b"back")
        assert not plan.has_partitions

    def test_asymmetric_cut_loses_only_the_reply(self):
        plan = FaultPlan(seed=1)
        net, server, client = world("synchronous", plan)
        # Cut only server -> client: the request executes, the reply dies.
        plan.sever(src=server.node.address, dst=client.address)
        with pytest.raises(RPCTimeout):
            echo(client, server, b"half")
        assert sum(server.request_counts.values()) >= 1

    def test_partition_groups_and_heal_partition(self):
        plan = FaultPlan(seed=1)
        plan.partition(["a"], ["b", "c"])
        assert plan.link_severed("a", "b")
        assert plan.link_severed("c", "a")  # symmetric by default
        plan.heal_partition(["a"], ["b", "c"])
        assert not plan.has_partitions
        plan.partition(["a"], ["b"], symmetric=False)
        assert plan.link_severed("a", "b")
        assert not plan.link_severed("b", "a")

    def test_sever_requires_an_endpoint_and_heal_all(self):
        plan = FaultPlan(seed=1)
        with pytest.raises(ValueError):
            plan.sever()
        plan.sever(src="a")
        plan.sever(dst="b")
        plan.heal()  # no args: heal everything
        assert not plan.has_partitions

    def test_partitioned_frames_counted_per_link(self):
        from repro.ipc.rpc import trans

        plan = FaultPlan(seed=1)
        net, server, client = world("synchronous", plan)
        plan.sever(src=client.address, dst=server.node.address)
        with pytest.raises(RPCTimeout):
            # Unicast (dst_machine given) so the drop is attributed to
            # the exact link, not the broadcast's "src->*" bucket.
            trans(
                client,
                server.put_port,
                Message(command=USER_BASE, data=b"counted"),
                rng=RandomSource(seed=7),
                timeout=0.25,
                dst_machine=server.node.address,
            )
        by_link = plan.stats()["by_link"]
        key = "%s->%s" % (client.address, server.node.address)
        assert by_link[key]["partition"] >= 1


class TestVirtualTimers:
    def test_timers_fire_at_their_instants_in_order(self):
        clock = VirtualClock()
        net = SimNetwork(clock=clock, latency=LatencyModel(seed=1))
        fired = []
        net.loop.call_at(0.30, lambda: fired.append(("b", clock.now)))
        net.loop.call_at(0.10, lambda: fired.append(("a", clock.now)))
        net.loop.run()
        assert fired == [("a", 0.10), ("b", 0.30)]
        assert net.loop.stats()["timers_fired"] == 2

    def test_past_instant_clamps_to_now(self):
        clock = VirtualClock()
        net = SimNetwork(clock=clock, latency=LatencyModel(seed=1))
        clock.advance_to(1.0)
        fired = []
        net.loop.call_at(0.2, lambda: fired.append(clock.now))
        net.loop.run()
        assert fired == [1.0]

    def test_timer_can_schedule_another_timer(self):
        clock = VirtualClock()
        net = SimNetwork(clock=clock, latency=LatencyModel(seed=1))
        fired = []

        def first():
            fired.append("first")
            net.loop.call_at(0.5, lambda: fired.append("second"))

        net.loop.call_at(0.1, first)
        net.loop.run()
        assert fired == ["first", "second"]

    def test_timer_fires_mid_transaction(self):
        # A cut scheduled on the heap lands while the client is blocked
        # polling for its reply — the re-entrant stepping contract.
        r = ScenarioRunner("timer-mid-trans", seed=3)
        r.at(0.0005, "cut", r.partition_client)
        assert r.incr() is None  # the cut landed before the reply
        r.heal_client()
        assert r.incr() is not None


class TestPartitionSuspicion:
    def test_pool_silence_raises_partition_suspected(self):
        r = ScenarioRunner("pool-silence", seed=5, client_timeout=0.4)
        r.incr()
        r.partition_client()
        with pytest.raises(PartitionSuspected):
            r.client.call(CMD_INCR, capability=r.capability)

    def test_single_server_silence_stays_plain_timeout(self):
        r = ScenarioRunner("single-silence", seed=5, replicas=1,
                          client_timeout=0.4)
        r.incr()
        r.partition_client()
        with pytest.raises(RPCTimeout) as excinfo:
            r.client.call(CMD_INCR, capability=r.capability)
        # One silent machine is a crash verdict, not a network one.
        assert not isinstance(excinfo.value, PartitionSuspected)

    def test_suspecting_locator_rebroadcasts_and_observes_heal(self):
        r = ScenarioRunner("suspect-heal", seed=5, client_timeout=0.4)
        r.incr()
        r.partition_client()
        with pytest.raises(PartitionSuspected):
            r.client.call(CMD_INCR, capability=r.capability)
        assert r.locator.suspects(r.put_port)
        r.heal_client()
        assert r.incr() is not None  # re-LOCATE found the pool again
        assert not r.locator.suspects(r.put_port)

    def test_suspected_cache_hit_probes_instead_of_trusting(self):
        # The Locator's own contract: a *suspected* port's warm cache
        # entry is not trusted — locate re-broadcasts, and the HERE
        # answer clears the suspicion (the heal is observed).
        r = ScenarioRunner("suspect-probe", seed=5)
        locator = r.locator
        locator.locate(r.put_port)
        hits_before = locator.hits
        locator.locate(r.put_port)
        assert locator.hits == hits_before + 1
        locator.suspect(r.put_port)
        assert locator.suspects(r.put_port)
        locator.locate(r.put_port)
        assert locator.suspicion_probes == 1
        assert not locator.suspects(r.put_port)


class TestChaosEngine:
    def _scenario(self, seed):
        r = ScenarioRunner("engine", seed)
        state = {"fresh": None}
        r.at(0.10, "isolate_r2", lambda: r.isolate_replica(2))
        r.at(0.12, "refresh",
             lambda: state.__setitem__("fresh", r.refresh()))
        r.at(0.40, "rejoin_r2", lambda: r.rejoin_replica(2))
        r.at(0.45, "reconcile", r.reconcile)
        r.continuously(*STANDARD_INVARIANTS[:3])
        r.run_ops(4, spacing=0.05)
        r.run_ops(4, capability=state["fresh"], spacing=0.05)
        r.quiesce()
        r.check(*STANDARD_INVARIANTS)
        r.check(no_phantom_authority(r.capability))
        if state["fresh"] is not None:
            r.check(no_lost_authority(state["fresh"]))
        return r.result()

    def test_double_run_is_bit_identical(self):
        assert self._scenario(17) == self._scenario(17)

    def test_different_seeds_still_hold_invariants(self):
        for seed in (1, 2):
            assert self._scenario(seed)["violations"] == []

    def test_reconcile_repairs_the_dark_replica(self):
        result = self._scenario(17)
        repaired = [detail for _t, kind, detail in result["trace"]
                    if kind == "reconcile"]
        assert repaired == ["repaired=1"]
        assert result["faults"]["partition_drops"] >= 1

    def test_effectively_once_checker_fires_on_a_seeded_duplicate(self):
        r = ScenarioRunner("seeded-dup", seed=9)
        r.run_ops(2)
        r.quiesce()
        server = r.servers[0]
        server.execution_log.append(server.execution_log[-1])
        r.check(effectively_once)
        assert any("re-executed" in v for v in r.violations)

    def test_a_power_failure_that_misses_its_checkpoint_is_an_error(self):
        """A fault instant tuned for a longer checkpoint must not turn
        its scenario into a silent no-op."""
        r = ScenarioRunner("power", seed=4, replicas=1, durable=True)
        r.run_ops(2)
        with pytest.raises(ValueError, match="outlived the checkpoint"):
            r.power_fail(after_writes=9)
        r = ScenarioRunner("power", seed=4, replicas=1, durable=True)
        r.run_ops(2)
        r.power_fail(after_writes=1)
        assert r.reboot_server().entries_restored == 1
        assert [detail for _t, kind, detail in r.result()["trace"]
                if kind == "power_fail"] == ["mid_checkpoint=True"]

    def test_delegation_chain_survives_partition_and_heal(self):
        # A -> B -> C, each hop restricting rights, with a replica out
        # and back *between* the hops: exactly read survives at C.
        r = ScenarioRunner("delegation", seed=13)
        alice = r._make_client("alice")
        bob = r._make_client("bob")
        carol = r._make_client("carol")
        cap_b = alice.restrict(r.capability, int(RIGHT_READ | RIGHT_WRITE))
        r.isolate_replica(1)
        cap_c = bob.restrict(cap_b, int(RIGHT_READ))
        r.rejoin_replica(1)
        assert int(carol.call(CMD_GET, capability=cap_c).data) >= 0
        with pytest.raises(PermissionDenied):
            carol.call(CMD_INCR, capability=cap_c)
        r.quiesce()
        r.check(*STANDARD_INVARIANTS)
        r.check(no_lost_authority(cap_c, RIGHT_READ))
        assert r.violations == []


class TestRecordedDigests:
    """``benchmarks/chaos_digests.json`` is the behaviour-preservation
    oracle ``make bench-chaos-smoke`` checks in full; here, that the
    check itself works, on one scenario."""

    @staticmethod
    def _bench():
        import importlib.util
        import os
        import sys

        # The arm modules import each other by plain name (bench_chaos
        # takes bench_shard's EchoServer).
        benchmarks = os.path.abspath(os.path.join(
            os.path.dirname(__file__), os.pardir, "benchmarks"))
        if benchmarks not in sys.path:
            sys.path.insert(0, benchmarks)
        path = os.path.join(benchmarks, "bench_chaos.py")
        spec = importlib.util.spec_from_file_location("bench_chaos", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_recorded_scenario_matches_and_a_moved_entry_is_named(self):
        import json

        bench = self._bench()
        with open(bench.DIGESTS_PATH) as handle:
            recorded = json.load(handle)
        assert len(recorded) == 20
        result = bench._scn_delegation_chain(61)
        key = "delegation_chain@61"
        assert bench.digest_mismatches([result], {key: recorded[key]}) == []

        result["trace"][2][2] = "something else happened"
        (line,) = bench.digest_mismatches([result], {key: recorded[key]})
        assert line.startswith(key) and "trace entry 2 is now" in line
        assert "something else happened" in line
        result["trace"].pop()
        (line,) = bench.digest_mismatches([result], {key: recorded[key]})
        assert "trace entry 2" in line
        assert bench.digest_mismatches([], {key: recorded[key]}) == [
            key + ": recorded but no longer in the matrix"
        ]
