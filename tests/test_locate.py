"""Tests for LOCATE broadcasts and the (port, machine) cache."""

import pytest

from repro.core.ports import Port, PrivatePort
from repro.crypto.randomsrc import RandomSource
from repro.errors import PortNotLocated
from repro.ipc.locate import Locator, install_locate_responder
from repro.net.network import SimNetwork
from repro.net.nic import Nic


@pytest.fixture
def world():
    net = SimNetwork()
    server_nic = Nic(net)
    install_locate_responder(server_nic)
    g = PrivatePort(1234)
    wire = server_nic.listen(g)
    client_nic = Nic(net)
    locator = Locator(client_nic, rng=RandomSource(seed=1))
    return net, server_nic, wire, locator


class TestLocate:
    def test_finds_the_serving_machine(self, world):
        _, server_nic, wire, locator = world
        assert locator.locate(wire) == server_nic.address

    def test_miss_then_hit(self, world):
        net, server_nic, wire, locator = world
        locator.locate(wire)
        broadcasts_after_miss = net.broadcasts
        locator.locate(wire)
        assert net.broadcasts == broadcasts_after_miss  # cache hit: no wire
        assert locator.hits == 1 and locator.misses == 1

    def test_unknown_port_raises(self, world):
        _, _, _, locator = world
        with pytest.raises(PortNotLocated):
            locator.locate(Port(0xDEAD), timeout=0.05)

    def test_invalidate_forces_rebroadcast(self, world):
        net, _, wire, locator = world
        locator.locate(wire)
        locator.invalidate(wire)
        before = net.broadcasts
        locator.locate(wire)
        assert net.broadcasts == before + 1

    def test_multiple_services_located_independently(self, world):
        net, server_nic, wire, locator = world
        other_nic = Nic(net)
        install_locate_responder(other_nic)
        g2 = PrivatePort(5678)
        wire2 = other_nic.listen(g2)
        assert locator.locate(wire) == server_nic.address
        assert locator.locate(wire2) == other_nic.address

    def test_responder_ignores_ports_it_does_not_serve(self, world):
        net, server_nic, wire, locator = world
        # A second machine with a responder but not serving the port must
        # not answer for it.
        bystander = Nic(net)
        install_locate_responder(bystander)
        assert locator.locate(wire) == server_nic.address

    def test_responder_ignores_non_locate_broadcasts(self, world):
        from repro.net.message import Message

        net, server_nic, _, _ = world
        sender = Nic(net)
        # Nothing should blow up; the handler just ignores it.
        sender.put_broadcast(Message(command=999, data=b"noise"))


class TestCacheStaleness:
    """A located (port, machine) pair is a *cache*, not a lease: the
    server can migrate and the cached machine go dark.  Clients observe
    the failure, ``invalidate()``, and re-locate — under both the real
    and the virtual clock."""

    def _migration_world(self, net):
        """Server on machine A; returns (old_nic, wire, locator)."""
        old_nic = Nic(net)
        install_locate_responder(old_nic)
        wire = old_nic.listen(PrivatePort(4321))
        client_nic = Nic(net)
        locator = Locator(client_nic, rng=RandomSource(seed=21))
        return old_nic, wire, locator

    def _migrate(self, net, old_nic, wire):
        """Move the service to a fresh machine; the old one detaches."""
        net.detach(old_nic.address)
        new_nic = Nic(net)
        install_locate_responder(new_nic)
        new_nic.listen(PrivatePort(4321))
        return new_nic

    def test_stale_cache_then_invalidate_and_relocate(self):
        net = SimNetwork()
        old_nic, wire, locator = self._migration_world(net)
        assert locator.locate(wire) == old_nic.address
        new_nic = self._migrate(net, old_nic, wire)
        # The cache still answers with the dark machine — a hit, no wire
        # traffic, and no way for the locator to know better yet.
        stale = locator.locate(wire)
        assert stale == old_nic.address
        assert locator.hits == 1 and locator.misses == 1
        # The client observed the timeout/failure; invalidate + re-locate
        # must broadcast again and find the new home.
        locator.invalidate(wire)
        assert locator.locate(wire) == new_nic.address
        assert locator.hits == 1 and locator.misses == 2

    def test_unicast_to_stale_machine_fails_then_recovers(self):
        from repro.errors import RPCTimeout
        from repro.ipc.rpc import trans
        from repro.net.message import Message

        net = SimNetwork()
        old_nic, wire, locator = self._migration_world(net)
        machine = locator.locate(wire)
        new_nic = self._migrate(net, old_nic, wire)
        new_nic.serve(
            PrivatePort(4321), lambda f: new_nic.put(f.message.reply_to())
        )
        client_nic = locator.node
        # Unicast to the cached-but-dark machine: nothing answers.
        with pytest.raises(RPCTimeout):
            trans(
                client_nic,
                wire,
                Message(),
                RandomSource(seed=22),
                dst_machine=machine,
                timeout=0.05,
            )
        locator.invalidate(wire)
        reply = trans(
            client_nic,
            wire,
            Message(),
            RandomSource(seed=23),
            dst_machine=locator.locate(wire),
        )
        assert reply.is_reply

    def test_stale_cache_under_virtual_clock(self):
        from repro.net.sched import LatencyModel, VirtualClock

        net = SimNetwork(
            clock=VirtualClock(), latency=LatencyModel(rtt_ms=2.8)
        )
        old_nic, wire, locator = self._migration_world(net)
        assert locator.locate(wire) == old_nic.address
        new_nic = self._migrate(net, old_nic, wire)
        locator.invalidate(wire)
        start = net.clock.now
        assert locator.locate(wire) == new_nic.address
        # The re-locate costs one full virtual RTT, like any LOCATE.
        assert net.clock.now - start == pytest.approx(0.0028)
        assert locator.hits == 0 and locator.misses == 2

    def test_timeout_consumes_real_time_on_sockets_shape(self):
        """PortNotLocated on a station whose poll blocks in wall time:
        the synchronous simulator pumps-and-returns, so the timeout path
        is immediate (no sleep), but the error still raises."""
        net = SimNetwork()
        Nic(net)
        client_nic = Nic(net)
        locator = Locator(client_nic, rng=RandomSource(seed=24))
        with pytest.raises(PortNotLocated):
            locator.locate(Port(0xF00D), timeout=0.01)

    def test_timeout_consumes_virtual_time_on_des(self):
        from repro.net.sched import LatencyModel, VirtualClock

        net = SimNetwork(
            clock=VirtualClock(), latency=LatencyModel(rtt_ms=2.8)
        )
        Nic(net)
        client_nic = Nic(net)
        locator = Locator(client_nic, rng=RandomSource(seed=25))
        start = net.clock.now
        with pytest.raises(PortNotLocated):
            locator.locate(Port(0xF00D), timeout=0.75)
        assert net.clock.now - start == pytest.approx(0.75)


class TestBlockingPollFeatureDetection:
    """Regression for the TypeError-swallowing probe: a station whose
    delivery path raises TypeError must propagate it, not dissolve it
    into a bogus PortNotLocated."""

    def test_delivery_typeerror_propagates(self):
        from repro.net.sched import VirtualClock

        net = SimNetwork(clock=VirtualClock())  # the station that waits
        client_nic = Nic(net)
        locator = Locator(client_nic, rng=RandomSource(seed=26))

        def poisoned_poll_wire(wire_port, timeout=None):
            if timeout is not None:
                raise TypeError("genuine bug inside delivery")
            return None  # fast path: nothing queued yet

        client_nic.poll_wire = poisoned_poll_wire
        with pytest.raises(TypeError, match="genuine bug"):
            locator.locate(Port(0xF00D), timeout=0.1)


class TestLocatedUnicast:
    def test_located_rpc_is_unicast(self, world):
        from repro.ipc.rpc import trans
        from repro.net.message import Message

        net, server_nic, wire, locator = world
        # Replace the listen-queue with an echoing handler.
        g = PrivatePort(1234)
        server_nic.serve(g, lambda f: server_nic.put(f.message.reply_to()))
        client_nic = locator.node
        machine = locator.locate(wire)
        reply = trans(
            client_nic,
            wire,
            Message(),
            rng=RandomSource(seed=2),
            dst_machine=machine,
        )
        assert reply.is_reply


class TestShardedLocationCache:
    """(Id kept from the striped cache.)  The locate cache is one
    read-mostly map: lock-free reads, writes and invalidations under
    one lock, one invalidation epoch."""

    def test_put_get_invalidate(self):
        from repro.ipc.locate import LocationCache

        cache = LocationCache()
        ports = [Port(1000 + i) for i in range(32)]
        for i, port in enumerate(ports):
            cache.put(port, i)
        assert len(cache._machines) == 32
        assert all(cache.get(port) == i for i, port in enumerate(ports))
        cache.invalidate(ports[5])
        assert cache.get(ports[5]) is None
        assert len(cache._machines) == 31
        # Neighbours are untouched.
        assert cache.get(ports[5 + 8]) == 13
        assert cache.get(ports[6]) == 6

    def test_any_invalidation_refuses_an_older_snapshot(self, world):
        """One epoch for the whole table: a put carrying a snapshot taken
        before an invalidation of a *different* port is refused — and the
        locate that raced it still returns its answer, uncached."""
        from repro.ipc.locate import LocationCache

        cache = LocationCache()
        epoch = cache.epoch
        cache.invalidate(Port(8))
        assert cache.put(Port(7), 99, epoch=epoch) is False
        assert cache.get(Port(7)) is None
        assert cache.put(Port(7), 99, epoch=cache.epoch) is True

        net, server_nic, wire, locator = world
        bystander = Nic(net)
        # A crash elsewhere is detected while the broadcast is in flight.
        bystander.on_broadcast(lambda frame: locator.invalidate(Port(8)))
        assert locator.locate(wire) == server_nic.address
        assert locator.cache.get(wire) is None
        assert locator.locate(wire) == server_nic.address  # asks again
        assert (locator.hits, locator.misses) == (0, 2)

    def test_concurrent_readers_and_invalidators(self):
        """Read-mostly discipline: lock-free gets race locked
        puts/invalidations without errors or wrong answers."""
        import threading

        from repro.ipc.locate import LocationCache

        cache = LocationCache()
        ports = [Port(2000 + i) for i in range(64)]
        for i, port in enumerate(ports):
            cache.put(port, i)
        stop = threading.Event()
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    for i, port in enumerate(ports):
                        got = cache.get(port)
                        assert got is None or got == i
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def churner():
            try:
                for r in range(300):
                    port = ports[r % len(ports)]
                    cache.invalidate(port)
                    cache.put(port, r % len(ports))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        churners = [threading.Thread(target=churner) for _ in range(4)]
        for t in readers + churners:
            t.start()
        for t in churners:
            t.join(timeout=30.0)
        stop.set()
        for t in readers:
            t.join(timeout=30.0)
        assert not errors
