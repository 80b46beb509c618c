"""One pool, wherever its replicas run.

``ReplicatedObjectServer`` states "N replicas of one port" once and
takes *where they run* as an argument: stations on a ``SimNetwork`` in
this process — synchronous, deferred or discrete-event — or forked OS
processes over loopback UDP.  This is the reference the placements are
checked against: one script, run against the pool in each of them, must
give the verdicts written out in ``EXPECTED`` — locate resolves to the
whole pool, a refresh through one member revokes at every member, a
destroy through another removes the object at every member, a killed
member is forgotten (alone) by failover, and a suspected one is steered
around but never evicted.
"""

import pytest

from repro.crypto.randomsrc import RandomSource
from repro.errors import InvalidCapability, NoSuchObject
from repro.ipc import stdops
from repro.ipc.client import ServiceClient
from repro.ipc.locate import Locator
from repro.ipc.replica import ReplicatedObjectServer
from repro.ipc.rpc import trans
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.net.sched import LatencyModel, VirtualClock

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
    "health after the kill": [True, False, True],
    "cached after failover": (0, 2),
    "registry after the kill": (0, 1, 2),
    "steered around the suspect": (0, 2),
    "after unsuspect": (0, 1, 2),
}


class World:
    """A three-member pool holding two objects, and one client station."""

    def __init__(self, kind):
        net = None
        if kind == "des":
            net = SimNetwork(
                clock=VirtualClock(), latency=LatencyModel(rtt_ms=2.0)
            )
        elif kind != "forked-udp":
            net = SimNetwork(synchronous=(kind == "synchronous"))
        self.pool = ReplicatedObjectServer(
            net, replicas=3, rng=RandomSource(7), objects=2, payload=b"row"
        ).start()
        if net is None:
            from repro.net.sockets import SocketNode

            self.node = SocketNode()
            self.node.connect(self.pool.arbiter.address)
        else:
            self.node = Nic(net)
        self.rng = RandomSource(11)
        self.expect = self.pool.signature.public
        self.timeout = 4.0 if net is None else 1.0

    def ask(self, member, command, capability):
        """One transaction with member ``member``, asked directly."""
        return trans(
            self.node, self.pool.put_port,
            Message(command=command, capability=capability),
            rng=self.rng, timeout=self.timeout, expect_signature=self.expect,
            dst_machine=self.pool.addresses[member],
        )

    def each_member(self, capability):
        return [
            self.ask(member, stdops.STD_TOUCH, capability).status
            for member in range(3)
        ]

    def indices(self, machines):
        """Which members, by pool index — not in what order: forked
        members join in the order their JOIN datagrams land."""
        return tuple(sorted(self.pool.addresses.index(m) for m in machines))

    def close(self):
        self.pool.stop()
        if self.pool.network is None:
            self.node.close()


@pytest.fixture
def world():
    made = []

    def make(kind):
        made.append(World(kind))
        return made[-1]

    yield make
    for w in made:
        w.close()


def script(w):
    pool, seen = w.pool, {}
    doomed, kept = pool.capabilities
    locator = Locator(w.node, rng=RandomSource(3))
    client = ServiceClient(
        w.node, pool.put_port, rng=RandomSource(5), expect_signature=w.expect,
        locator=locator, timeout=w.timeout,
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
    seen["health after the kill"] = [
        pool.health(member, timeout=0.5) for member in range(3)
    ]
    for _ in range(6):
        client.touch(kept)  # failover keeps the service up
    seen["cached after failover"] = w.indices(
        locator.cache.get(pool.put_port)
    )
    # Death is the clients' to discover: the registry keeps the member,
    # and a failed probe only steers around it.
    seen["registry after the kill"] = w.indices(pool.replica_set())
    assert not pool.probe(1, timeout=0.5) and pool.probe(2, timeout=2.0)
    seen["steered around the suspect"] = w.indices(pool.replica_set())
    pool.registry.unsuspect(pool.put_port, pool.addresses[1])
    seen["after unsuspect"] = w.indices(pool.replica_set())
    return seen


@pytest.mark.parametrize("kind", PLACEMENTS)
def test_one_script_one_verdict(world, kind):
    assert script(world(kind)) == EXPECTED
