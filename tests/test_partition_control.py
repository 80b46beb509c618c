"""Forked replica-pool membership and health under partition-and-heal.

The membership half of the partition story: a pool member that goes
silent behind a network cut is *suspected* — steered around by the
locate responder — but never evicted, because eviction would throw
away state (revocation generations, mirrored secrets) that is intact
behind the partition.  When the cut heals, one answered health
transaction (a reply signed with the pool's F(S)) clears the suspicion
and the member is back in rotation with that state untouched.

Covers the registry's suspicion contract as units, and a real
fork-per-replica :class:`ReplicatedObjectServer` over loopback UDP whose arbiter
drops ingress from one member via a :class:`FaultPlan` partition
(`sever(src=member)` — the arbiter's side of the cut).
"""

import pytest

from repro.core.ports import PrivatePort
from repro.crypto.randomsrc import RandomSource
from repro.errors import InvalidCapability
from repro.ipc import stdops
from repro.ipc.locate import Locator
from repro.ipc.replica import ROUND_ROBIN, ReplicaRegistry
from repro.ipc.rpc import trans
from repro.net.faults import FaultPlan
from repro.net.message import Message


class TestRegistrySuspicion:
    def _registry(self):
        registry = ReplicaRegistry(policy=ROUND_ROBIN)
        port = PrivatePort.generate(RandomSource(seed=1)).public
        for machine in ("m0", "m1", "m2"):
            registry.join(port, machine)
        return registry, port

    def test_suspect_steers_around_but_keeps_membership(self):
        registry, port = self._registry()
        assert registry.suspect(port, "m1")
        assert registry.suspected(port) == ("m1",)
        assert registry.members(port) == ("m0", "m1", "m2")  # not evicted
        assert tuple(registry.replica_set(port)) == ("m0", "m2")

    def test_suspicion_cannot_invent_members(self):
        registry, port = self._registry()
        assert not registry.suspect(port, "stranger")
        assert registry.suspected(port) == ()

    def test_all_suspected_pool_is_still_served_whole(self):
        registry, port = self._registry()
        for machine in ("m0", "m1", "m2"):
            registry.suspect(port, machine)
        # Advisory, not authoritative: the suspicion may be *our* side
        # of the partition, so an all-suspected set is returned intact.
        assert tuple(registry.replica_set(port)) == ("m0", "m1", "m2")

    def test_unsuspect_restores_rotation(self):
        registry, port = self._registry()
        registry.suspect(port, "m1")
        assert registry.unsuspect(port, "m1")
        assert tuple(registry.replica_set(port)) == ("m0", "m1", "m2")
        assert not registry.unsuspect(port, "m1")  # already clear

    def test_rejoin_is_proof_of_reachability(self):
        registry, port = self._registry()
        registry.suspect(port, "m1")
        registry.join(port, "m1")  # the member's own JOIN clears it
        assert registry.suspected(port) == ()
        assert registry.members(port) == ("m0", "m1", "m2")

    def test_leave_cleans_suspicion_state(self):
        registry, port = self._registry()
        registry.suspect(port, "m1")
        assert registry.leave(port, "m1")
        assert registry.suspected(port) == ()
        assert registry.members(port) == ("m0", "m2")


@pytest.mark.integration
class TestPoolPartitionAndHeal:
    def test_partitioned_member_suspected_not_evicted_then_rejoins(self):
        """Fork a 3-process pool, cut the arbiter's ingress from one
        member, and walk the full suspect -> steer-around -> heal ->
        rejoin cycle, asserting the member's generation state survived
        the whole episode."""
        from repro.ipc.replica import ReplicatedObjectServer
        from repro.net.sockets import SocketNode

        pool = ReplicatedObjectServer(replicas=3, objects=1, payload=b"part")
        client_node = SocketNode()
        plan = FaultPlan(seed=1)
        try:
            assert len(pool.registry.members(pool.put_port)) == 3
            assert all(pool.probe(i, timeout=2.0) for i in range(3))

            client_node.connect(pool.arbiter.address)
            locator = Locator(client_node, rng=RandomSource(3))
            cap = pool.capabilities[0]
            cut = pool.addresses[1]

            # The arbiter's side of the partition: everything *from*
            # member 1 is dropped at ingress — its signed health replies
            # go dark.
            pool.arbiter.faults = plan
            plan.sever(src=cut)
            assert not pool.probe(1, timeout=0.5)
            assert pool.registry.suspected(pool.put_port) == (cut,)
            # Suspected, steered around — but NOT evicted.  (Compared
            # as sets: the steering, not the order, is under test.)
            assert len(pool.registry.members(pool.put_port)) == 3
            assert set(pool.replica_set()) == {
                pool.addresses[0], pool.addresses[2],
            }
            # Clients locating through the arbiter see the trimmed set.
            located = locator.locate(pool.put_port)
            assert cut not in located and len(located) == 2

            # Revocation proceeds while the member is suspected: the
            # fan-out rides the data lane (child to child), which this
            # cut does not touch.
            fresh = _refresh(client_node, pool, cap, locator)

            # Heal: one answered health transaction re-admits the
            # member...
            plan.heal(src=cut)
            assert pool.probe(1, timeout=2.0)
            assert pool.registry.suspected(pool.put_port) == ()
            assert len(pool.replica_set()) == 3

            # ...with its generation state intact from behind the cut:
            # the revoked capability is rejected, the fresh one valid.
            old = _touch(client_node, pool, cap, dst=cut, seed=100)
            assert old.status == InvalidCapability.code
            good = _touch(client_node, pool, fresh, dst=cut, seed=101)
            assert good.status == 0
        finally:
            pool.arbiter.faults = None
            pool.stop()
            client_node.close()


def _refresh(client_node, pool, cap, locator):
    from repro.ipc.client import ServiceClient

    client = ServiceClient(
        client_node,
        pool.put_port,
        rng=RandomSource(5),
        expect_signature=pool.signature.public,
        locator=locator,
        timeout=4.0,
    )
    return client.refresh(cap)


def _touch(client_node, pool, cap, dst, seed):
    return trans(
        client_node,
        pool.put_port,
        Message(command=stdops.STD_TOUCH, capability=cap),
        rng=RandomSource(seed),
        timeout=4.0,
        expect_signature=pool.signature.public,
        dst_machine=dst,
    )
