"""One pool, wherever its replicas run.

``ReplicatedObjectServer`` states "N replicas of one port" once and
takes *where they run* as an argument: stations on a ``SimNetwork`` in
this process — synchronous, deferred or discrete-event — or forked OS
processes over loopback UDP.  This is the reference the placements are
checked against: one script, run against the pool in each of them, must
give the verdicts written out in ``EXPECTED`` — locate resolves to the
whole pool, a refresh through one member revokes at every member, a
destroy through another removes the object at every member, and a
killed member is forgotten (alone) by failover but never evicted from
the pool's membership.
"""

from functools import partial

import pytest

from repro.crypto.randomsrc import RandomSource
from repro.errors import InvalidCapability, NoSuchObject, RPCTimeout
from repro.ipc import stdops
from repro.ipc.client import ServiceClient
from repro.ipc.locate import Locator
from repro.ipc.replica import ReplicatedObjectServer
from repro.ipc.rpc import trans
from repro.net.message import Message
from repro.testing.world import World

PLACEMENTS = (
    "synchronous",
    "deferred",
    "des",
    pytest.param("forked-udp", marks=pytest.mark.integration),
)

#: What the script must observe, whatever the placement.  Members are
#: named by their index in the pool.
EXPECTED = {
    "located": (0, 1, 2),
    "revoked capability, each member": [InvalidCapability.code] * 3,
    "fresh capability, each member": [0, 0, 0],
    "destroyed object, each member": [NoSuchObject.code] * 3,
    "other object, each member": [0, 0, 0],
    "answers after the kill": [True, False, True],
    "cached after failover": (0, 2),
    "members after the kill": (0, 1, 2),
}


class ReplicaWorld(World):
    """A three-member pool holding two objects, and one client station."""

    def __init__(self, kind):
        super().__init__("udp" if kind == "forked-udp" else kind)
        self.pool = ReplicatedObjectServer(
            self.net, replicas=3, rng=RandomSource(7), objects=2,
            payload=b"row").start()
        self.client = self.node()
        if self.net is None:
            self.client.connect(self.pool.arbiter.address)
        self.rng = RandomSource(11)
        self.expect = self.pool.signature.public
        self.timeout = 4.0 if self.net is None else 1.0

    def ask(self, member, command, capability, timeout=None):
        """One transaction with member ``member``, asked directly."""
        return trans(
            self.client, self.pool.put_port,
            Message(command=command, capability=capability),
            rng=self.rng, timeout=timeout or self.timeout,
            expect_signature=self.expect,
            dst_machine=self.pool.members[member],
        )

    def answers(self, member):
        """Does member ``member`` reply at all?  A capability-less touch:
        its signed refusal is an answer."""
        try:
            self.ask(member, stdops.STD_TOUCH, None, timeout=0.5)
        except RPCTimeout:
            return False
        return True

    def each_member(self, capability):
        return [
            self.ask(member, stdops.STD_TOUCH, capability).status
            for member in range(3)
        ]

    def indices(self, machines):
        """Which members, by pool index, in the order given."""
        return tuple(self.pool.members.index(m) for m in machines)

    def close(self):
        self.pool.stop()
        super().close()


@pytest.fixture
def world(worlds):
    return partial(worlds, ReplicaWorld)


def script(w):
    pool, seen = w.pool, {}
    doomed, kept = pool.capabilities
    locator = Locator(w.client, rng=RandomSource(3))
    client = ServiceClient(
        w.client, pool.put_port, rng=RandomSource(5),
        expect_signature=w.expect, locator=locator, timeout=w.timeout,
    )
    client.touch(kept)
    seen["located"] = w.indices(locator.cache.get(pool.put_port))

    refreshed = w.ask(1, stdops.STD_REFRESH, doomed)
    assert refreshed.status == 0
    fresh = refreshed.capability
    seen["revoked capability, each member"] = w.each_member(doomed)
    seen["fresh capability, each member"] = w.each_member(fresh)

    assert w.ask(2, stdops.STD_DESTROY, fresh).status == 0
    seen["destroyed object, each member"] = w.each_member(fresh)
    seen["other object, each member"] = w.each_member(kept)

    pool.kill(1)
    seen["answers after the kill"] = [w.answers(m) for m in range(3)]
    for _ in range(6):
        client.touch(kept)  # failover keeps the service up
    seen["cached after failover"] = w.indices(
        locator.cache.get(pool.put_port)
    )
    # Death is the clients' to discover: the pool keeps the member.
    seen["members after the kill"] = w.indices(pool.replica_set())
    return seen


@pytest.mark.parametrize("kind", PLACEMENTS)
def test_one_script_one_verdict(world, kind):
    assert script(world(kind)) == EXPECTED
