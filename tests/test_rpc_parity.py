"""One protocol, however it is scheduled.

``trans``, ``AsyncTrans(...).result()`` and ``trans_many`` are three
schedules of the same transaction engine, and two stations have a batch
lane of their own.  This matrix is the reference those lanes are checked
against: on every station and delivery discipline, with and without a
retry schedule, port-addressed, unicast and through a replica set, the
three must return equal replies, put the same number of frames on the
wire, screen a forged reply the same way and leave no reply GET behind —
when the transaction succeeds and when it times out.

Also here: the station contract (what rpc, server and locate may ask of
a station) and the one rule for a retransmission that finds no listener.
"""

import time
from functools import partial

import pytest

from repro.core.ports import Port, PrivatePort, as_port
from repro.crypto.randomsrc import RandomSource
from repro.errors import PartitionSuspected, PortNotLocated, RPCTimeout
from repro.ipc.replica import ReplicaSet
from repro.ipc.rpc import (
    AsyncTrans, RetryPolicy, _await_reply, trans, trans_many,
)
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE
from repro.net.faults import FaultPlan
from repro.net.fbox import FBox
from repro.net.message import Message
from repro.net.network import Frame
from repro.net.nic import REPLY_BLOCK, Station
from repro.testing.world import STATIONS, World

pytestmark = pytest.mark.integration

SERVICE = PrivatePort(0x5E41CE)
SIGNATURE = PrivatePort(0x516A7)
FORGER = Port(0xBAD516)
REQUEST = Message(command=USER_BASE, data=b"ping")
BATCH = 3


def answer(server, behaviour, frame):
    """The server's raw request handler: an echo, a forgery and then an
    echo, or a forgery alone (``behaviour``; "silent" answers nothing)."""
    request = frame.message
    if behaviour in ("forged-first", "forged-only"):
        server.put(request.reply_to(data=b"forged", signature=FORGER),
                   frame.src)
    if behaviour in ("echo", "forged-first"):
        server.put(request.reply_to(data=request.data.upper(),
                                    signature=as_port(SIGNATURE)), frame.src)


class ParityWorld(World):
    """A client, a server station answering by ``behaviour``, and two
    stations that serve nothing (the "dead" machines)."""

    def __init__(self, kind, behaviour="echo", faults=None):
        super().__init__(kind, faults=faults)
        self.server, self.client, *dead = [self.node() for _ in range(4)]
        if self.net is None:
            self.client.connect(self.server.address)
        self.port = self.server.serve(SERVICE,
                                      partial(answer, self.server, behaviour))
        self.live, self.dead = self.server.address, [n.address for n in dead]

    def reply_gets(self):
        return super().reply_gets(self.client, self.port)


@pytest.fixture
def world(worlds):
    return partial(worlds, ParityWorld)


def destination(w, name, alive=True):
    """A fresh destination per call: a replica set's round-robin cursor
    advances with every selection."""
    if name == "port":
        return None
    if name == "machine":
        return w.live if alive else w.dead[0]
    return ReplicaSet([w.live, w.dead[0]] if alive else w.dead)


def retry_policy(name, quick=False):
    if name is None:
        return None
    # Generous waits where a reply is coming (a late one must not cost a
    # retransmission on a busy box), tight ones where none ever will.
    if quick:
        return RetryPolicy(attempts=2, rto=0.01, cap=0.02, jitter=0)
    return RetryPolicy(attempts=2, rto=1.0, cap=1.0, jitter=0)


def schedules(w, dest_name, retry_name, timeout, alive=True, quick=False):
    """The three ways to run the transaction: ``name -> callable`` that
    returns the list of replies."""
    expect = SIGNATURE.public

    def common():
        return dict(
            expect_signature=expect,
            dst_machine=destination(w, dest_name, alive),
            retry=retry_policy(retry_name, quick),
        )

    return {
        "trans": lambda: [trans(
            w.client, w.port, REQUEST, RandomSource(seed=1),
            timeout=timeout, **common())],
        "engine": lambda: [AsyncTrans(
            w.client, w.port, REQUEST, RandomSource(seed=2),
            **common()).result(timeout)],
        "trans_many": lambda: trans_many(
            w.client, w.port, [REQUEST] * BATCH, RandomSource(seed=3),
            timeout=timeout, **common()),
    }


def seen(reply):
    return (reply.command, reply.status, reply.data, reply.signature,
            reply.is_reply)


@pytest.mark.parametrize("dest", ("port", "machine", "replicas"))
@pytest.mark.parametrize("retry", (None, "policy"))
@pytest.mark.parametrize("station", STATIONS)
class TestParity:
    def _run(self, w, dest, retry, timeout, **kwargs):
        """Per schedule: (what each reply looked like or the error's
        type, frames it put on the wire)."""
        out = {}
        for name, run in schedules(w, dest, retry, timeout, **kwargs).items():
            before = w.frames()
            try:
                replies = [seen(reply) for reply in run()]
            except RPCTimeout as exc:
                replies = type(exc)
            out[name] = (replies, w.frames() - before)
            assert not w.reply_gets(), name
        return out

    def test_success(self, world, station, retry, dest):
        w = world(station)
        out = self._run(w, dest, retry, timeout=5.0)
        genuine = (USER_BASE, 0, b"PING", SIGNATURE.public, True)
        assert out["trans"] == ([genuine], 2)
        assert out["engine"] == out["trans"]
        assert out["trans_many"] == ([genuine] * BATCH, 2 * BATCH)

    def test_forged_reply_is_screened(self, world, station, retry, dest):
        w = world(station, "forged-first")
        out = self._run(w, dest, retry, timeout=5.0)
        genuine = (USER_BASE, 0, b"PING", SIGNATURE.public, True)
        assert out["trans"] == ([genuine], 3)
        assert out["engine"] == out["trans"]
        assert out["trans_many"] == ([genuine] * BATCH, 3 * BATCH)

    def test_timeout(self, world, station, retry, dest):
        """Only forgeries come back (port, and a replica set tried
        member by member), or nothing at all (a machine that serves
        nothing): every schedule times out after the same traffic."""
        alive = dest == "port"
        w = world(station, "forged-only")
        out = self._run(w, dest, retry, timeout=0.2, alive=alive, quick=True)
        per_send = 2 if alive else 1  # the request, and a forgery back
        whole_schedule = per_send * (1 if retry is None else 3)
        # A batch gives up at its first timeout: one transaction ran its
        # whole schedule, the others were issued once.
        batch = whole_schedule + (BATCH - 1) * per_send
        assert out["engine"] == (RPCTimeout, whole_schedule)
        if dest == "replicas":
            # Two candidates, each given the whole schedule; the engine
            # alone binds to the first and does not fail over.
            assert out["trans"] == (PartitionSuspected, 2 * whole_schedule)
            assert out["trans_many"] == (PartitionSuspected, 2 * batch)
        else:
            assert out["trans"] == (RPCTimeout, whole_schedule)
            assert out["trans_many"] == (RPCTimeout, batch)


@pytest.mark.parametrize("station", STATIONS)
@pytest.mark.parametrize("retry", (None, "policy"))
def test_failover_is_one_policy(world, station, retry):
    """Dead member first: ``trans`` and ``trans_many`` both fail over to
    the live one, report exactly the dead one, and pay for the dead one
    what a timeout there costs (see ``TestParity.test_timeout``)."""

    class Forgotten(list):
        def invalidate_member(self, port, machine):
            self.append((port, machine))

    w = world(station)
    whole_schedule = 1 if retry is None else 3
    for run, wasted in (
        (lambda **kw: [trans(w.client, w.port, REQUEST,
                             RandomSource(seed=4), **kw)],
         whole_schedule),
        (lambda **kw: trans_many(w.client, w.port, [REQUEST] * BATCH,
                                 RandomSource(seed=5), **kw),
         whole_schedule + BATCH - 1),
    ):
        forgotten = Forgotten()
        before = w.frames()
        replies = run(
            timeout=0.2, expect_signature=SIGNATURE.public,
            dst_machine=ReplicaSet([w.dead[0], w.live]),
            retry=retry_policy(retry, quick=True), locator=forgotten,
        )
        assert [r.data for r in replies] == [b"PING"] * len(replies)
        assert forgotten == [(w.port, w.dead[0])]
        assert not w.reply_gets()
        assert w.frames() - before == wasted + 2 * len(replies)


@pytest.mark.parametrize("lane", ("blocking", "pipelined", "retried"))
@pytest.mark.parametrize("station", STATIONS)
def test_a_port_cache_flush_every_few_frames_costs_no_transaction(
        world, station, lane, port_cache_max):
    """Both port caches bounded at 4 — the F-box images and, on UDP, the
    decode intern table are dropped every few frames — and three times
    that many transactions per lane, from two alternating randomness
    sources so that one source's refill flushes the other's undealt
    images.  The retried lane runs under a lossy, duplicating wire: a
    retransmission after a flush recomputes the same F(G')."""
    lossy = lane == "retried"
    faults = FaultPlan(seed=22, drop=0.2, duplicate=0.1) if lossy else None
    w = world(station, faults=faults)
    retry = RetryPolicy(attempts=12, rto=0.01, cap=0.02, jitter=0) \
        if lossy else None
    sources = [RandomSource(seed=6), RandomSource(seed=7)]
    genuine = (USER_BASE, 0, b"PING", SIGNATURE.public, True)
    with port_cache_max(4):
        for i in range(3 * 4):
            kwargs = dict(timeout=5.0, expect_signature=SIGNATURE.public,
                          dst_machine=w.live, retry=retry)
            if lane == "pipelined":
                replies = trans_many(w.client, w.port, [REQUEST] * BATCH,
                                     sources[i % 2], **kwargs)
            else:
                replies = [trans(w.client, w.port, REQUEST, sources[i % 2],
                                 **kwargs)]
            assert [seen(reply) for reply in replies] == (
                [genuine] * len(replies))
            assert not w.reply_gets()
    if lossy:
        assert faults.injected_drops and faults.injected_duplicates
    for node in w.nodes:
        # a pool refill images its block whole, whatever the bound
        assert len(node.fbox._images) <= REPLY_BLOCK + 1


# ----------------------------------------------------------------------
# the rule for a retransmission that finds no listener
# ----------------------------------------------------------------------


@pytest.mark.parametrize("schedule", ("trans", "engine", "trans_many"))
@pytest.mark.parametrize("station", ("synchronous", "deferred-manual"))
def test_retransmission_to_no_listener_raises(world, station, schedule):
    """The server takes every first copy and withdraws its GET without
    answering.  The retransmission is port-addressed and nobody admits
    it: that is PortNotLocated on every schedule, not a quiet timeout."""
    w = world(station, "silent")
    first_copies = [BATCH if schedule == "trans_many" else 1]

    def take_them_and_leave(frame):
        first_copies[0] -= 1
        if not first_copies[0]:
            w.server.unlisten(SERVICE)

    w.server.serve(SERVICE, take_them_and_leave)
    run = schedules(w, "port", "policy", timeout=1.0, quick=True)[schedule]
    with pytest.raises(PortNotLocated):
        run()
    assert not first_copies[0] and not w.reply_gets()


# ----------------------------------------------------------------------
# the station contract
# ----------------------------------------------------------------------


def contract_members():
    methods = {
        name for name, member in vars(Station).items()
        if callable(member) and not name.startswith("_")
    }
    return set(Station.__annotations__) | methods


class LoopbackStation:
    """The least a station can be: the contract and nothing else, over a
    shared dict standing in for the wire."""

    clock = None
    supports_batch_serve = False

    def __init__(self, wire):
        self._wire = wire
        self._fbox = FBox()
        self._sinks = {}
        self.address = len(wire) + 1
        wire[self.address] = self

    def listen(self, port):
        wire_port = self._fbox.listen_port(as_port(port))
        self._sinks.setdefault(wire_port, [])
        return wire_port

    def listen_reply(self, rng):
        secret = Port.random(rng)
        return secret, self.listen(secret)

    def listen_fresh(self, ports):
        wires = [self._fbox.listen_port(as_port(port)) for port in ports]
        if len(set(wires)) < len(wires) or set(wires) & set(self._sinks):
            return None
        for wire_port in wires:
            self._sinks[wire_port] = []
        return wires

    def unlisten(self, port):
        self.unlisten_wire(self._fbox.listen_port(as_port(port)))

    def unlisten_wire(self, wire_port):
        self._sinks.pop(wire_port, None)

    def serve(self, port, handler):
        wire_port = self._fbox.listen_port(as_port(port))
        self._sinks[wire_port] = handler
        return wire_port

    def serve_batch(self, port, handler):
        return self.serve(port, lambda frame: handler([frame]))

    def on_broadcast(self, handler):
        raise NotImplementedError("nothing here locates")

    def poll_wire(self, wire_port):
        queued = self._sinks.get(wire_port)
        return queued.pop(0) if queued else None

    def wait_wire(self, wire_port, remaining):
        return self.poll_wire(wire_port)

    def pump(self):
        return 0

    def put(self, message, dst_machine=None):
        return self._send(self._fbox.transform_egress(message), dst_machine)

    def put_owned(self, message, dst_machine=None):
        return self._send(
            self._fbox.transform_egress_owned(message), dst_machine
        )

    def put_owned_unicast_bulk(self, pairs):
        return sum(self.put_owned(m, dst) for m, dst in pairs)

    def put_broadcast(self, message):
        return self.put(message)

    def _send(self, on_wire, dst_machine):
        frame = Frame(src=self.address, dst_machine=dst_machine,
                      message=on_wire)
        for address, station in self._wire.items():
            if dst_machine in (None, address):
                sink = station._sinks.get(on_wire.dest)
                if callable(sink):
                    sink(frame)
                    return True
                if sink is not None:
                    sink.append(frame)
                    return True
        return False


class TestStationContract:
    @pytest.mark.parametrize("discipline", STATIONS[:-1])
    def test_nic_keeps_it_on_every_discipline(self, world, discipline):
        for node in world(discipline).nodes:
            assert isinstance(node, Station)
        deferred = discipline != "synchronous"
        assert node.supports_batch_serve is deferred
        assert (node.clock is not None) is (discipline == "des")

    def test_socket_node_keeps_it(self, world):
        node = world("udp").client
        assert isinstance(node, Station)
        assert node.supports_batch_serve
        assert node.clock is None

    @pytest.mark.parametrize("kind", STATIONS + ("loopback",))
    def test_an_empty_timed_wait_is_final(self, world, kind):
        """``wait_wire`` coming back empty has spent the budget (DES: the
        clock stands at the deadline; a socket blocked that long) or
        drained all there was, so the one wait asks once and gives up —
        it does not look at what kind of station it is on."""
        if kind == "loopback":
            node = LoopbackStation({})
        else:
            node = world(kind).client
        wire = node.listen(PrivatePort(0xE4971))
        clock = node.clock
        read_clock = time.monotonic if clock is None else lambda: clock.now
        asked = []
        wait_wire = node.wait_wire

        def counted(wire_port, remaining):
            asked.append(remaining)
            return wait_wire(wire_port, remaining)

        node.wait_wire = counted
        budget = 0.05
        start = read_clock()
        reply = _await_reply(node, wire, None, start + budget, read_clock)
        spent = read_clock() - start
        assert reply is None
        assert len(asked) == 1 and 0 < asked[0] <= budget
        if kind == "des":
            assert spent == pytest.approx(budget)
        elif kind == "udp":
            assert budget * 0.9 <= spent < budget + 1.0  # a loaded box
        else:
            assert spent < budget  # nothing to wait for: drained, final

    def test_a_get_withdrawn_mid_wait_ends_the_wait(self, world):
        """A SocketNode whose reply GET is gone answers a timed wait at
        once; the wait used to spin on it until the deadline."""
        node = world("udp").client
        wire = node.listen(PrivatePort(0xE4972))
        node.unlisten_wire(wire)
        polls = []
        poll_wire = node.poll_wire
        node.poll_wire = lambda *args: polls.append(args) or poll_wire(*args)
        start = time.monotonic()
        assert _await_reply(node, wire, None, start + 0.2,
                            time.monotonic) is None
        assert len(polls) == 2  # the fast path, then the one timed wait

    def test_the_loopback_station_is_only_the_contract(self):
        public = {n for n in dir(LoopbackStation) if not n.startswith("_")}
        assert public | {"address"} == contract_members()
        assert isinstance(LoopbackStation({}), Station)

    @pytest.mark.parametrize("batch_serve", (False, True))
    def test_the_contract_is_enough_for_a_transaction(self, batch_serve):
        class Echo(ObjectServer):
            @command(USER_BASE)
            def _echo(self, ctx):
                return ctx.ok(data=ctx.request.data.upper())

        wire = {}
        server_station = LoopbackStation(wire)
        server_station.supports_batch_serve = batch_serve
        server = Echo(server_station, rng=RandomSource(seed=1),
                      dedup=True).start()
        client = LoopbackStation(wire)
        kwargs = dict(expect_signature=server.signature_image,
                      retry=RetryPolicy(attempts=1))
        reply = trans(client, server.put_port, REQUEST,
                      RandomSource(seed=2), **kwargs)
        assert reply.data == b"PING"
        replies = trans_many(client, server.put_port, [REQUEST] * BATCH,
                             RandomSource(seed=3), **kwargs)
        assert [r.data for r in replies] == [b"PING"] * BATCH
        assert not client._sinks
        server.stop()
        with pytest.raises(PortNotLocated):
            trans(client, server.put_port, REQUEST, RandomSource(seed=4))
