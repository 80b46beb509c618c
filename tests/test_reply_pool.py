"""Fresh reply ports by the block (``Station.listen_reply``).

A station draws and images reply pairs (G', F(G')) sixteen at a time and
deals one per blocking transaction.  What must not change with that:
the seeded stream (the same secrets, in the same order, as one
``Port.random`` per transaction), freshness (a pair is dealt once,
never shared with a GET that is already out), and admission — a pair
still in the pool is *imaged*, not *listened*.  Held on the synchronous
and deferred simulators and on real UDP.
"""

import sys
import threading
from functools import partial

import pytest

from repro.core.ports import Port, PrivatePort
from repro.crypto.randomsrc import RandomSource
from repro.errors import PortNotLocated, RPCTimeout
from repro.ipc.replica import ReplicaSet
from repro.ipc.rpc import AsyncTrans, trans
from repro.ipc.stdops import USER_BASE
from repro.net.fbox import FBox
from repro.net.message import Message
from repro.net.nic import REPLY_BLOCK
from repro.testing.world import World

pytestmark = pytest.mark.integration

SERVICE = PrivatePort(0x5E41CE)
PING = Message(command=USER_BASE, data=b"ping")
MUTE = Message(command=USER_BASE, data=b"mute")  # the server never answers
SEED = 7
F = FBox().one_way

SIMULATORS = ("synchronous", "deferred")
STATIONS = SIMULATORS + ("udp",)


class PoolWorld(World):
    """A client and an echo handler on a server station.  ``reply_ports``
    is what a wiretap learns of each request: the reply field as it
    crossed the wire (on UDP, as the server received it)."""

    def __init__(self, kind):
        super().__init__(kind)
        self.reply_ports = []
        # On UDP never connect()ed: a port-addressed request finds nobody.
        self.server, self.client = self.node(), self.node()
        if self.net is not None:
            self.net.add_tap(self._tap)
        self.port = self.server.serve(SERVICE, self._handle)
        self.to = self.server.address

    def _tap(self, frame):
        if not frame.message.is_reply:
            self.reply_ports.append(frame.message.reply)

    def _handle(self, frame):
        request = frame.message
        if self.net is None:
            self.reply_ports.append(request.reply)
        if request.data != MUTE.data:
            self.server.put(request.reply_to(data=request.data.upper()),
                            frame.src)

    def gets(self):
        return self.reply_gets(self.client, self.port)

    def admitted(self, wire_port):
        if self.net is None:
            return wire_port in self.client._sinks
        return (self.client.admits(wire_port)
                or wire_port in self.net._listeners)


@pytest.fixture
def world(worlds):
    return partial(worlds, PoolWorld)


def predicted(seed, n):
    """What ``n`` draws of one ``Port.random`` each would have been."""
    twin = RandomSource(seed=seed)
    return [Port.random(twin) for _ in range(n)]


@pytest.mark.parametrize("station", STATIONS)
class TestTheSeededStreamIsUntouched:
    def test_forty_transactions_use_the_forty_ports_port_random_gives(
            self, world, station):
        w = world(station)
        rng = RandomSource(seed=SEED)
        for _ in range(40):
            assert trans(w.client, w.port, PING, rng,
                         dst_machine=w.to).data == b"PING"
        assert w.reply_ports == [F(g) for g in predicted(SEED, 40)]
        assert not w.gets()

    def test_a_refused_replica_set_draws_and_listens_nothing(
            self, world, station):
        w = world(station)
        rng = RandomSource(seed=SEED)
        with pytest.raises(PortNotLocated):
            AsyncTrans(w.client, w.port, PING, rng,
                       dst_machine=ReplicaSet([]))
        assert not w.gets()
        trans(w.client, w.port, PING, rng, dst_machine=w.to)
        assert w.reply_ports == [F(predicted(SEED, 1)[0])]


@pytest.mark.parametrize("station", STATIONS)
class TestPreImagedIsNotPreListened:
    def test_a_frame_for_an_undealt_pair_is_refused(self, world, station):
        w = world(station)
        trans(w.client, w.port, PING, RandomSource(seed=SEED),
              dst_machine=w.to)
        undealt = [F(g) for g in predicted(SEED, REPLY_BLOCK)[1:]]
        assert len(w.client._reply_pools) == 1
        for wire_port in undealt:
            assert not w.admitted(wire_port)
        probe = Message(dest=undealt[0], data=b"early")
        if w.net is not None:
            dropped = w.net.frames_dropped
            assert w.server.put(probe) is False
            assert w.server.put(probe, w.client.address) is False
            assert w.net.frames_dropped == dropped + 2
            assert undealt[0] not in w.net._listeners
        else:
            # No sink claims it, so it falls to the station's handlers
            # for frames addressed to no GET here.
            unclaimed = threading.Event()
            w.client.on_broadcast(lambda frame: unclaimed.set())
            w.server.put(probe, w.client.address)
            assert unclaimed.wait(5.0)
            assert undealt[0] not in w.client._sinks

    def test_dealing_admits_exactly_the_dealt_pair(self, world, station):
        w = world(station)
        secrets = predicted(SEED, REPLY_BLOCK)
        call = AsyncTrans(w.client, w.port, MUTE, RandomSource(seed=SEED),
                          dst_machine=w.to)
        assert call.wire_reply == F(secrets[0])
        assert w.gets() == {F(secrets[0])}
        call.cancel()
        assert not w.gets()


@pytest.mark.parametrize("squat", ("listen", "serve"))
@pytest.mark.parametrize("station", STATIONS)
class TestAPairWithAGetAlreadyOutIsSkipped:
    def test_never_shared_and_the_squatter_hears_nothing(
            self, world, station, squat):
        w = world(station)
        secrets = predicted(SEED, 4)
        heard = []
        if squat == "listen":
            taken = w.client.listen(secrets[2])
        else:
            taken = w.client.serve(secrets[2], heard.append)
        assert taken == F(secrets[2])
        rng = RandomSource(seed=SEED)
        for _ in range(3):
            assert trans(w.client, w.port, PING, rng,
                         dst_machine=w.to).data == b"PING"
        assert w.reply_ports == [F(secrets[0]), F(secrets[1]), F(secrets[3])]
        assert w.gets() == {taken}  # still the squatter's, not withdrawn
        if squat == "listen":
            assert w.client.poll(secrets[2]) is None
        assert not heard


@pytest.mark.parametrize("station", STATIONS)
class TestPoolsAreKeyedBySource:
    def _count_refills(self, node):
        calls = []
        batch = node.fbox.one_way_batch

        def counted(ports):
            calls.append(len(ports))
            return batch(ports)

        node.fbox.one_way_batch = counted
        return calls

    def test_two_alternating_sources_refill_once_per_block_each(
            self, world, station):
        w = world(station)
        refills = self._count_refills(w.client)
        sources = {11: RandomSource(seed=11), 12: RandomSource(seed=12)}
        mine = {11: [], 12: []}
        for i in range(40):
            seed = 11 + i % 2
            trans(w.client, w.port, PING, sources[seed], dst_machine=w.to)
            mine[seed].append(w.reply_ports[-1])
        for seed in sources:
            assert mine[seed] == [F(g) for g in predicted(seed, 20)]
        # ceil(20 / 16) per source, not one per alternation
        assert refills == [REPLY_BLOCK] * 4

    def test_many_sources_do_not_accumulate(self, world, station):
        w = world(station)
        sources = [RandomSource(seed=100 + i) for i in range(30)]
        for rng in sources + sources:
            assert trans(w.client, w.port, PING, rng,
                         dst_machine=w.to).data == b"PING"
        assert len(w.client._reply_pools) <= 8
        assert len(set(w.reply_ports)) == 60
        assert not w.gets()


@pytest.mark.parametrize("station", STATIONS)
class TestAFlushBetweenRefillAndDeal:
    def test_costs_a_recompute_and_yields_the_same_wire_port(
            self, world, station, port_cache_max):
        """A pool keeps each pair's image itself; the F-box's cache is
        only where egress looks first.  A second source's refill fills
        the cache past its bound while the first source's pairs wait
        undealt: their transactions recompute F(G') at egress — the
        port that was listened on — and complete."""
        w = world(station)
        f_calls = []
        raw = w.client.fbox._f_raw

        def counted(value):
            f_calls.append(value)
            return raw(value)

        w.client.fbox._f_raw = counted
        first, second = RandomSource(seed=11), RandomSource(seed=12)
        with port_cache_max(REPLY_BLOCK + 4):
            trans(w.client, w.port, PING, first, dst_machine=w.to)
            assert len(f_calls) == REPLY_BLOCK  # imaged by the block
            trans(w.client, w.port, PING, second, dst_machine=w.to)
            assert len(f_calls) == 2 * REPLY_BLOCK  # ... and flushed
            for n in range(1, 4):
                reply = trans(w.client, w.port, PING, first,
                              dst_machine=w.to)
                assert reply.data == b"PING"
                assert len(f_calls) == 2 * REPLY_BLOCK + n
        mine = predicted(11, 4)
        assert f_calls[-3:] == mine[1:]
        assert w.reply_ports == [F(g) for g in
                                 mine[:1] + predicted(12, 1) + mine[1:]]
        assert not w.gets()


@pytest.mark.parametrize("station", STATIONS)
class TestNothingIsLeftBehind:
    def test_two_hundred_mixed_transactions_return_to_baseline(
            self, world, station):
        w = world(station)
        rng = RandomSource(seed=SEED)
        outcomes = {"ok": 0, "timeout": 0, "cancel": 0, "unlocated": 0,
                    "no members": 0}
        for i in range(200):
            kind = i % 10
            if kind == 3:
                with pytest.raises(RPCTimeout):
                    trans(w.client, w.port, MUTE, rng, timeout=0.01,
                          dst_machine=w.to)
                outcomes["timeout"] += 1
            elif kind == 5:
                call = AsyncTrans(w.client, w.port, MUTE, rng,
                                  dst_machine=w.to)
                call.cancel()
                call.cancel()
                outcomes["cancel"] += 1
            elif kind == 7:
                # Port-addressed to a port nobody serves: the request is
                # refused after the reply GET went out.
                with pytest.raises(PortNotLocated):
                    trans(w.client, Port(0xDEAD), PING, rng)
                outcomes["unlocated"] += 1
            elif kind == 9:
                with pytest.raises(PortNotLocated):
                    trans(w.client, w.port, PING, rng,
                          dst_machine=ReplicaSet([]))
                outcomes["no members"] += 1
            else:
                assert trans(w.client, w.port, PING, rng,
                             dst_machine=w.to).data == b"PING"
                outcomes["ok"] += 1
        assert outcomes == {"ok": 120, "timeout": 20, "cancel": 20,
                            "unlocated": 20, "no members": 20}
        assert not w.gets()
        if w.net is not None:
            assert len(w.client._sinks) == 0
            assert set(w.net._listeners) == {w.port}
        # Every transaction that got as far as a GET used a port of its
        # own.  (The tap sees the unlocated requests too; the UDP server
        # never does.)
        on_wire = 180 if w.net is not None else 160
        assert len(set(w.reply_ports)) == len(w.reply_ports) == on_wire


class TestClientThreadsShareOnePool:
    def test_eight_threads_deal_each_pair_exactly_once(self, world):
        """A SocketNode is shared by client threads; a pair dealt twice
        or lost to a racing refill would show as a repeated or missing
        port of the seeded stream."""
        w = world("udp")
        rng = RandomSource(seed=SEED)
        errors = []

        def client():
            try:
                for _ in range(50):
                    assert trans(w.client, w.port, PING, rng, timeout=10.0,
                                 dst_machine=w.to).data == b"PING"
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert len(w.reply_ports) == 400
        assert set(w.reply_ports) == {F(g) for g in predicted(SEED, 400)}
        assert not w.gets()


@pytest.mark.parametrize("station", STATIONS)
class TestNoSecretInARepr:
    def test_station_and_transaction_reprs(self, world, station):
        w = world(station)
        call = AsyncTrans(w.client, w.port, MUTE, RandomSource(seed=SEED),
                          dst_machine=w.to)
        shown = repr(w.client) + repr(call) + repr(w.client.fbox)
        call.cancel()
        shown += repr(call)
        for secret in predicted(SEED, REPLY_BLOCK):  # dealt and undealt
            assert "%012x" % secret not in shown
            assert "%x" % secret not in shown
            assert str(int(secret)) not in shown
        assert "%012x" % call.wire_reply in shown  # the public image may
