"""Forked replica-pool membership and health under partition-and-heal.

The membership half of the partition story: a pool member that goes
silent behind a network cut is never evicted, because eviction would
throw away state (revocation generations, mirrored secrets) that is
intact behind the partition.  The pool's ``members`` tuple does not
move; clients discover the silence themselves, through timeout and
failover.  When the cut heals, one answered health transaction (a reply
signed with the pool's F(S)) shows the member back with that state
untouched.

A real fork-per-replica :class:`ReplicatedObjectServer` over loopback
UDP whose arbiter drops ingress from one member via a
:class:`FaultPlan` partition (`sever(src=member)` — the arbiter's side
of the cut).
"""

import pytest

from repro.crypto.randomsrc import RandomSource
from repro.errors import InvalidCapability
from repro.ipc import stdops
from repro.ipc.locate import Locator
from repro.ipc.rpc import trans
from repro.net.faults import FaultPlan
from repro.net.message import Message
from test_replica import answers


@pytest.mark.integration
class TestPoolPartitionAndHeal:
    def test_partitioned_member_suspected_not_evicted_then_rejoins(self):
        """Fork a 3-process pool, cut the arbiter's ingress from one
        member, and walk the full partition -> refresh -> heal cycle,
        asserting the member's generation state survived the whole
        episode."""
        from repro.ipc.replica import ReplicatedObjectServer
        from repro.net.sockets import SocketNode

        pool = ReplicatedObjectServer(replicas=3, objects=1, payload=b"part")
        client_node = SocketNode()
        plan = FaultPlan(seed=1)
        try:
            members = pool.members
            assert len(members) == 3
            assert all(answers(pool, i, timeout=2.0) for i in range(3))

            client_node.connect(pool.arbiter.address)
            locator = Locator(client_node, rng=RandomSource(3))
            cap = pool.capabilities[0]
            cut = members[1]

            # The arbiter's side of the partition: everything *from*
            # member 1 is dropped at ingress — its signed health replies
            # go dark.
            pool.arbiter.faults = plan
            plan.sever(src=cut)
            assert not answers(pool, 1, timeout=0.5)
            # Silent, but NOT evicted: clients locating through the
            # arbiter still get the whole pool, in replica order.
            assert pool.members == members
            assert tuple(locator.locate(pool.put_port)) == members

            # Revocation proceeds across the cut: the fan-out rides the
            # data lane (child to child), which this cut does not touch.
            fresh = _refresh(client_node, pool, cap, locator)

            # Heal: the member answers its health transaction again...
            plan.heal(src=cut)
            assert answers(pool, 1, timeout=2.0)
            assert pool.members == members

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
