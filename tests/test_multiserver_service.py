"""A service replicated across machines: one put-port, many servers.

§2.2: "Every server has one or more ports ... ports which are known only
to the server processes that comprise the service".  Several processes
doing GET on the same get-port form one load-balanced service; the
network's admission arbiter rotates among them.
"""

import pytest

from repro.core.ports import PrivatePort
from repro.crypto.randomsrc import RandomSource
from repro.errors import PortNotLocated
from repro.ipc.client import ServiceClient
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE
from repro.net.network import SimNetwork
from repro.net.nic import Nic


class WhoAmI(ObjectServer):
    service_name = "replicated"

    def __init__(self, node, replica_id, **kwargs):
        super().__init__(node, **kwargs)
        self.replica_id = replica_id

    @command(USER_BASE)
    def _whoami(self, ctx):
        return ctx.ok(data=b"replica %d" % self.replica_id)


@pytest.fixture
def service():
    net = SimNetwork()
    # The service's get-port is the shared secret among its members.
    service_port = PrivatePort.generate(RandomSource(seed=1))
    replicas = [
        WhoAmI(
            Nic(net), replica_id=i, get_port=service_port,
            rng=RandomSource(seed=10 + i),
        ).start()
        for i in range(3)
    ]
    client = ServiceClient(Nic(net), replicas[0].put_port,
                           rng=RandomSource(seed=2))
    return net, replicas, client


class TestReplicatedService:
    def test_all_replicas_share_the_put_port(self, service):
        _, replicas, _ = service
        assert len({r.put_port for r in replicas}) == 1

    def test_requests_rotate_among_replicas(self, service):
        _, replicas, client = service
        answers = {client.call(USER_BASE).data for _ in range(9)}
        assert answers == {b"replica 0", b"replica 1", b"replica 2"}

    def test_load_is_balanced(self, service):
        _, replicas, client = service
        for _ in range(30):
            client.call(USER_BASE)
        counts = [r.request_counts.get(USER_BASE, 0) for r in replicas]
        assert counts == [10, 10, 10]

    def test_replica_failure_masked(self, service):
        """A crashed replica just stops answering GET; the rest carry on."""
        _, replicas, client = service
        replicas[1].stop()
        answers = {client.call(USER_BASE).data for _ in range(10)}
        assert answers == {b"replica 0", b"replica 2"}

    def test_whole_service_down(self, service):
        _, replicas, client = service
        for replica in replicas:
            replica.stop()
        with pytest.raises(PortNotLocated):
            client.call(USER_BASE)

    def test_capabilities_are_replica_local(self, service):
        """Object tables are NOT replicated: a capability minted by one
        replica validates only there.  (Real Amoeba services replicate
        state below this layer; the port mechanism is indifferent.)"""
        from repro.errors import AmoebaError

        _, replicas, client = service
        cap = replicas[0].table.create("on replica 0")
        outcomes = set()
        for _ in range(6):
            try:
                client.touch(cap)
                outcomes.add("ok")
            except AmoebaError:
                outcomes.add("err")
        assert outcomes == {"ok", "err"}
