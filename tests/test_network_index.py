"""The routing index and its leak guarantees.

Indexed routing replaced the per-frame scan of every NIC for *served*
ports; its soundness rests on two invariants — a (machine, port) pair is
in the index exactly when that NIC has a ``listen``/``serve`` GET
outstanding for the port, and a frame is admitted exactly when some
station holds a sink for it (a transaction's reply port is a sink and
never an index entry) — and on pruning: no index entries, round-robin
counters, or owned taps may survive the machine or GET they belong to.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, invariant, precondition, rule,
)

from repro.core.ports import Port, PrivatePort
from repro.crypto.randomsrc import RandomSource
from repro.errors import PortNotLocated, RPCError
from repro.ipc.rpc import AsyncTrans, RetryPolicy, trans, trans_many
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE
from repro.net.intruder import Intruder
from repro.net.message import Message
from repro.net.network import Frame, SimNetwork
from repro.net.nic import Nic
from repro.net.sched import VirtualClock
from repro.testing.world import EchoServer as Echo


class TestIndexMirrorsAdmission:
    def test_listen_registers(self):
        net = SimNetwork()
        nic = Nic(net)
        wire = nic.listen(Port(5))
        assert net._listeners[wire] == [nic.address]
        assert nic.admits(wire)

    def test_unlisten_unregisters(self):
        net = SimNetwork()
        nic = Nic(net)
        wire = nic.listen(Port(5))
        nic.unlisten(Port(5))
        assert wire not in net._listeners
        assert not nic.admits(wire)

    def test_serve_registers_and_stop_unregisters(self):
        net = SimNetwork()
        server = Echo(Nic(net), rng=RandomSource(seed=1)).start()
        wire = server.node.fbox.listen_port(Port(server.get_port.secret))
        assert net._listeners[wire] == [server.node.address]
        server.stop()
        assert wire not in net._listeners

    def test_double_listen_registers_once(self):
        net = SimNetwork()
        nic = Nic(net)
        wire = nic.listen(Port(5))
        assert nic.listen(Port(5)) == wire
        assert net._listeners[wire] == [nic.address]
        nic.unlisten(Port(5))
        assert wire not in net._listeners

    def test_listen_then_serve_single_entry(self):
        net = SimNetwork()
        nic = Nic(net)
        wire = nic.listen(Port(5))
        nic.serve(Port(5), lambda frame: None)
        assert net._listeners[wire] == [nic.address]
        nic.unlisten(Port(5))
        assert wire not in net._listeners


    @pytest.mark.parametrize("get", ["listen", "serve"])
    def test_a_served_port_is_indexed_whatever_sink_preceded_it(self, get):
        # A reply-port sink is not indexed; a listen()/serve() on the
        # same port must still register it, not take the existing sink
        # for proof that somebody already did.
        net = SimNetwork()
        sender, nic = Nic(net), Nic(net)
        (wire,) = nic.listen_fresh([Port(5)])
        assert wire not in net._listeners and nic.admits(wire)
        if get == "listen":
            assert nic.listen(Port(5)) == wire
        else:
            assert nic.serve(Port(5), lambda frame: None) == wire
        assert net._listeners[wire] == [nic.address]
        assert sender.put(Message(dest=wire))
        nic.unlisten_wire(wire)
        assert wire not in net._listeners and not nic.admits(wire)
        assert not sender.put(Message(dest=wire))

    def test_reply_gets_are_admitted_and_never_indexed(self):
        net = SimNetwork()
        sender, nic = Nic(net), Nic(net)
        _, dealt = nic.listen_reply(RandomSource(seed=3))
        fresh = nic.listen_fresh([Port(6), Port(7)])
        assert net._listeners == {}
        for wire in (dealt, *fresh):
            assert nic.admits(wire)
            assert sender.put(Message(dest=wire))  # by port: ask the stations
            assert sender.put(Message(dest=wire), nic.address)
        assert [len(q) for q in nic.take_many(fresh)] == [2, 2]
        nic.unlisten_wire(dealt)
        assert not nic._sinks and net._listeners == {}
        assert net._round_robin == {}


class TestUnlistenWire:
    """``unlisten_wire`` goes on to the routing index only for a port
    the index lists: a reply port costs it a dict test, nothing more."""

    @staticmethod
    def spied(net):
        calls = []
        unregister = net.unregister_listener
        net.unregister_listener = (
            lambda *args: calls.append(args) or unregister(*args))
        return calls

    def test_a_reply_port_never_reaches_the_index(self):
        net = SimNetwork()
        server = Echo(Nic(net), rng=RandomSource(seed=1)).start()
        client = Nic(net)
        calls = self.spied(net)
        _, dealt = client.listen_reply(RandomSource(seed=3))
        client.unlisten_wire(dealt)
        for wire in client.listen_fresh([Port(6), Port(7)]):
            client.unlisten_wire(wire)
        rng = RandomSource(seed=4)
        for _ in range(3):
            trans(client, server.put_port, Message(command=USER_BASE), rng)
        assert calls == []
        assert not client._sinks

    def test_a_listened_port_still_deregisters(self):
        net = SimNetwork()
        nic = Nic(net)
        calls = self.spied(net)
        wire = nic.listen(Port(5))
        nic.unlisten_wire(wire)
        assert calls == [(nic.address, wire)]
        assert wire not in net._listeners and not nic.admits(wire)

    def test_a_port_served_twice_keeps_the_other_station(self):
        net = SimNetwork()
        first, second = Nic(net), Nic(net)
        wire = first.serve(Port(5), lambda frame: None)
        assert second.serve(Port(5), lambda frame: None) == wire
        first.unlisten_wire(wire)
        assert net._listeners[wire] == [second.address]
        assert second.admits(wire) and not first.admits(wire)
        second.unlisten_wire(wire)
        assert wire not in net._listeners


class TestRoutingThroughIndex:
    def test_port_addressed_delivery(self):
        net = SimNetwork()
        a, b = Nic(net), Nic(net)
        wire = b.listen(Port(5))
        assert a.put(Message(dest=wire))
        assert b.poll(Port(5)) is not None

    def test_round_robin_still_rotates(self):
        net = SimNetwork()
        a = Nic(net)
        s1, s2, s3 = Nic(net), Nic(net), Nic(net)
        g = PrivatePort(5)
        wire = s1.listen(g)
        s2.listen(g)
        s3.listen(g)
        for _ in range(6):
            a.put(Message(dest=wire))
        assert [s.pending(g) for s in (s1, s2, s3)] == [2, 2, 2]

    def test_detached_machine_not_routed_to(self):
        net = SimNetwork()
        a = Nic(net)
        s1, s2 = Nic(net), Nic(net)
        g = PrivatePort(5)
        wire = s1.listen(g)
        s2.listen(g)
        net.detach(s1.address)
        for _ in range(4):
            assert a.put(Message(dest=wire))
        assert s2.pending(g) == 4
        assert s1.pending(g) == 0

    def test_drop_when_no_listener(self):
        net = SimNetwork()
        a = Nic(net)
        assert not a.put(Message(dest=Port(404)))
        assert net.frames_dropped == 1


class TestLeakPruning:
    def test_transactions_leave_no_residue(self):
        net = SimNetwork()
        server = Echo(Nic(net), rng=RandomSource(seed=1)).start()
        client = Nic(net)
        rng = RandomSource(seed=2)
        request = Message(command=USER_BASE, data=b"x")
        for _ in range(200):
            trans(client, server.put_port, request, rng)
        # Only the server's own GET remains; per-transaction reply ports
        # and their round-robin counters are gone.
        assert len(net._listeners) == 1
        assert net._round_robin == {}
        assert len(client._sinks) == 0

    def test_round_robin_counter_pruned_with_last_listener(self):
        net = SimNetwork()
        a = Nic(net)
        s1, s2 = Nic(net), Nic(net)
        g = PrivatePort(5)
        wire = s1.listen(g)
        s2.listen(g)
        for _ in range(4):
            a.put(Message(dest=wire))
        assert wire in net._round_robin
        s1.unlisten(g)
        s2.unlisten(g)
        assert wire not in net._round_robin
        assert wire not in net._listeners

    def test_detach_prunes_index_and_counters(self):
        net = SimNetwork()
        a = Nic(net)
        listeners = [Nic(net) for _ in range(5)]
        g = PrivatePort(5)
        wire = listeners[0].listen(g)
        for nic in listeners[1:]:
            nic.listen(g)
        for _ in range(3):
            a.put(Message(dest=wire))
        for nic in listeners:
            net.detach(nic.address)
        assert net._listeners == {}
        assert net._round_robin == {}
        assert net.addresses() == [a.address]

    @pytest.mark.parametrize("synchronous", [True, False])
    def test_detach_with_live_gets_then_send(self, synchronous):
        # detach() prunes the index from the departing station's own
        # sinks: a queue GET, a handler GET and a GET shared with a
        # survivor all go, and nothing routes to the dead machine after.
        net = SimNetwork(synchronous=synchronous)
        sender, doomed, survivor = Nic(net), Nic(net), Nic(net)
        handled = []
        queue_wire = doomed.listen(Port(11))
        serve_wire = doomed.serve(Port(12), handled.append)
        shared_wire = doomed.listen(Port(13))
        assert survivor.listen(Port(13)) == shared_wire
        fresh = doomed.listen_fresh([Port(14), Port(15)])
        net.detach(doomed.address)
        assert net._listeners == {shared_wire: [survivor.address]}
        for wire in (queue_wire, serve_wire, *fresh):
            assert sender.put(Message(dest=wire)) is False
            assert sender.put(Message(dest=wire), doomed.address) is False
        for _ in range(3):
            assert sender.put(Message(dest=shared_wire)) is True
        assert net.frames_dropped == 8
        assert net.frames_delivered == 3
        assert handled == [] and doomed.received == 0
        assert survivor.pending(Port(13)) == 3
        assert net._round_robin == {}
        # A dead station's later GETs and withdrawals touch nothing.
        doomed.listen(Port(16))
        doomed.unlisten(Port(13))
        assert net._listeners == {shared_wire: [survivor.address]}

    def test_detach_removes_owned_taps(self):
        net = SimNetwork()
        sender, receiver = Nic(net), Nic(net)
        intruder = Intruder(net)
        intruder.start_capture()
        wire = receiver.listen(Port(5))
        sender.put(Message(dest=wire))
        assert len(intruder.captured) == 1
        net.detach(intruder.address)
        sender.put(Message(dest=wire))
        assert len(intruder.captured) == 1  # tap died with the machine
        assert net._taps == []

    def test_unowned_taps_survive_detach(self):
        net = SimNetwork()
        sender, receiver = Nic(net), Nic(net)
        seen = []
        net.add_tap(seen.append)
        net.detach(receiver.address)
        sender.put(Message(dest=Port(1)))
        assert len(seen) == 1

    def test_remove_tap_clears_ownership(self):
        net = SimNetwork()
        nic = Nic(net)
        seen = []
        net.add_tap(seen.append, owner=nic.address)
        net.remove_tap(seen.append)
        assert net._taps == []
        assert net._tap_owners == {}

    def test_stop_capture_after_detach_is_noop(self):
        # detach() already removed the owned tap; stop_capture must not
        # crash on the second removal.
        net = SimNetwork()
        intruder = Intruder(net)
        intruder.start_capture()
        net.detach(intruder.address)
        intruder.stop_capture()
        assert net._taps == []


class TestServeBacklog:
    def test_serve_drains_frames_queued_by_listen(self):
        net = SimNetwork()
        sender, receiver = Nic(net), Nic(net)
        g = PrivatePort(5)
        wire = receiver.listen(g)
        sender.put(Message(dest=wire, data=b"early"))
        assert receiver.pending(g) == 1
        handled = []
        receiver.serve(g, handled.append)
        # The queued frame became the handler's backlog, not a stranded
        # entry in a replaced queue.
        assert [f.message.data for f in handled] == [b"early"]
        sender.put(Message(dest=wire, data=b"late"))
        assert [f.message.data for f in handled] == [b"early", b"late"]


class TestPipelinedTransactions:
    """Pipelined transactions against a replicated service: every reply
    must land on its own transaction's fresh reply port, replicas must
    share the load, and completion must leave the index as it found it."""

    def _replicated(self, net, replicas=3):
        first = Echo(Nic(net), rng=RandomSource(seed=1)).start()
        servers = [first]
        for i in range(replicas - 1):
            servers.append(
                Echo(
                    Nic(net),
                    rng=RandomSource(seed=2 + i),
                    get_port=first.get_port,
                    signature=first.signature,
                ).start()
            )
        return servers

    def test_replies_land_on_right_reply_ports(self):
        net = SimNetwork(synchronous=False, auto_drain=False)
        servers = self._replicated(net)
        client = Nic(net)
        n = 32
        requests = [Message(command=USER_BASE, data=b"r%d" % i) for i in range(n)]
        replies = trans_many(client, servers[0].put_port, requests,
                             rng=RandomSource(seed=9))
        # In-order, content-matched: reply i answered request i, so each
        # landed on the port its own transaction listened on.
        assert [r.data for r in replies] == [b"r%d" % i for i in range(n)]
        assert all(r.is_reply for r in replies)

    def test_fairness_across_replicas(self):
        net = SimNetwork(synchronous=False, auto_drain=False)
        servers = self._replicated(net, replicas=3)
        client = Nic(net)
        requests = [Message(command=USER_BASE, data=b"x")] * 30
        trans_many(client, servers[0].put_port, requests,
                   rng=RandomSource(seed=9))
        counts = [s.request_counts[USER_BASE] for s in servers]
        assert sum(counts) == 30
        # The arbiter rotates strictly, so the split is exactly even.
        assert counts == [10, 10, 10]

    def test_no_listener_index_leaks_after_completion(self):
        net = SimNetwork(synchronous=False, auto_drain=False)
        servers = self._replicated(net)
        client = Nic(net)
        service_wire = servers[0].node.fbox.listen_port(
            Port(servers[0].get_port.secret)
        )
        for _ in range(5):
            requests = [Message(command=USER_BASE, data=b"x")] * 16
            trans_many(client, servers[0].put_port, requests,
                       rng=RandomSource(seed=9))
        # Only the service port remains indexed; the 80 per-transaction
        # reply ports and their round-robin counters are gone, as are
        # the client's sinks and the loop's queues.
        assert set(net._listeners) == {service_wire}
        assert set(net._round_robin) <= {service_wire}
        assert len(client._sinks) == 0
        assert net.loop._queues == {}

    def test_pipelined_on_synchronous_network_still_works(self):
        net = SimNetwork()  # plain synchronous seed-era network
        servers = self._replicated(net, replicas=2)
        client = Nic(net)
        requests = [Message(command=USER_BASE, data=b"s%d" % i) for i in range(8)]
        replies = trans_many(client, servers[0].put_port, requests,
                             rng=RandomSource(seed=9))
        assert [r.data for r in replies] == [b"s%d" % i for i in range(8)]
        assert len(net._listeners) == 1
        assert len(client._sinks) == 0

    @pytest.mark.parametrize("synchronous", [True, False])
    def test_an_at_least_once_batch_indexes_only_the_service(self,
                                                             synchronous):
        # A retry schedule sends trans_many down its N-engine fallback,
        # each engine handed its secret: still a sink and nothing else,
        # while every earlier reply GET of the batch is out.
        net = SimNetwork(synchronous=synchronous)
        census = []

        class Census(Echo):
            @command(USER_BASE)
            def _echo(self, ctx):
                census.append(set(net._listeners))
                return ctx.ok(data=ctx.request.data)

        server = Census(Nic(net), rng=RandomSource(seed=1)).start()
        service_wire = server.node.fbox.listen_port(
            Port(server.get_port.secret))
        client = Nic(net)
        requests = [Message(command=USER_BASE, data=b"a%d" % i)
                    for i in range(8)]
        replies = trans_many(client, server.put_port, requests,
                             rng=RandomSource(seed=9),
                             retry=RetryPolicy(attempts=2))
        assert [r.data for r in replies] == [m.data for m in requests]
        assert census == [{service_wire}] * 8
        assert set(net._listeners) == {service_wire} and not client._sinks

    def test_a_handed_secret_that_collides_is_refused_not_shared(self):
        net = SimNetwork()
        server = Echo(Nic(net), rng=RandomSource(seed=1)).start()
        client = Nic(net)
        wire = client.listen(Port(77))
        with pytest.raises(RPCError):
            AsyncTrans(client, server.put_port, Message(command=USER_BASE),
                       reply_secret=Port(77))
        assert server.request_counts[USER_BASE] == 0
        assert set(client._sinks) == {wire} and wire in net._listeners


class TestReplyFieldGuard:
    def test_bad_handler_offset_becomes_error_reply(self):
        # A buggy handler returning an out-of-range offset must produce a
        # proper error reply, not a silently corrupt success.
        class Buggy(ObjectServer):
            service_name = "buggy"

            @command(USER_BASE)
            def _bad(self, ctx):
                return ctx.ok(offset=-1)

        net = SimNetwork()
        server = Buggy(Nic(net), rng=RandomSource(seed=1)).start()
        client = Nic(net)
        reply = trans(client, server.put_port, Message(command=USER_BASE),
                      RandomSource(seed=2))
        assert reply.status != 0
        assert b"offset" in reply.data


# ----------------------------------------------------------------------
# generated histories against the naive model "scan every station"
# ----------------------------------------------------------------------

#: A small pool, so that generated GETs collide, stack and share ports.
PORTS = [Port(21), Port(22), Port(23)]
STATIONS = st.integers(0, 2)
PICKS = st.integers(0, 63)  # an index into the wire ports seen so far
NOBODY = Port(404)


class Witness(Echo):
    """Echo that looks at the index while the caller's reply GET is out:
    a reply port is never listed, whichever lane issued it."""

    @command(USER_BASE)
    def _echo(self, ctx):
        assert ctx.request.reply not in self.node.network._listeners
        return ctx.ok(data=ctx.request.data)


class IndexMachine(RuleBasedStateMachine):
    """listen / serve / listen_reply / listen_fresh / unlisten /
    unlisten_wire / take_many / server start-stop / detach / whole
    transactions on three stations, against a model that is one dict per
    station: wire port -> True for a ``listen``/``serve`` GET (indexed)
    or False for a reply GET (admitted only)."""

    network = staticmethod(SimNetwork)

    def __init__(self):
        super().__init__()
        self.net = self.network()
        self.nics = [Nic(self.net) for _ in range(3)]
        self.prober = Nic(self.net)  # sends; never listens, never leaves
        self.servers = [Witness(nic, rng=RandomSource(seed=10 + i))
                        for i, nic in enumerate(self.nics)]
        self.rngs = [RandomSource(seed=20 + i) for i in range(3)]
        self.gets = [{} for _ in self.nics]
        self.alive = [True] * 3
        fbox = self.prober.fbox
        self.seen = [NOBODY] + [fbox.listen_port(p) for p in PORTS] + [
            server.put_port for server in self.servers]

    def wire(self, pick):
        return self.seen[pick % len(self.seen)]

    def holders(self, wire):
        """The naive model's routing: ask every attached station."""
        return [nic for nic, alive in zip(self.nics, self.alive)
                if alive and nic.admits(wire)]

    @rule(s=STATIONS, port=st.sampled_from(PORTS), handler=st.booleans())
    def get(self, s, port, handler):
        nic = self.nics[s]
        if handler:
            wire = nic.serve(port, lambda frame: None)
        else:
            wire = nic.listen(port)
        self.gets[s][wire] = True

    @rule(s=STATIONS)
    def listen_reply(self, s):
        _, wire = self.nics[s].listen_reply(self.rngs[s])
        assert wire not in self.gets[s]
        self.gets[s][wire] = False
        self.seen.append(wire)

    @rule(s=STATIONS,
          ports=st.lists(st.sampled_from(PORTS), min_size=1, max_size=3))
    def listen_fresh(self, s, ports):
        nic = self.nics[s]
        wires = [nic.fbox.listen_port(port) for port in ports]
        if len(set(wires)) < len(wires) or set(wires) & set(self.gets[s]):
            assert nic.listen_fresh(ports) is None  # nothing listened
        else:
            assert nic.listen_fresh(ports) == wires
            self.gets[s].update(dict.fromkeys(wires, False))

    @rule(s=STATIONS, port=st.sampled_from(PORTS))
    def unlisten(self, s, port):
        nic = self.nics[s]
        nic.unlisten(port)
        self.gets[s].pop(nic.fbox.listen_port(port), None)

    @rule(s=STATIONS, pick=PICKS)
    def unlisten_wire(self, s, pick):
        self.nics[s].unlisten_wire(self.wire(pick))
        self.gets[s].pop(self.wire(pick), None)

    @rule(s=STATIONS, picks=st.lists(PICKS, max_size=4))
    def take_many(self, s, picks):
        wires = [self.wire(pick) for pick in picks]
        taken = self.nics[s].take_many(wires)
        for wire, sink in zip(wires, taken):
            assert (sink is None) == (self.gets[s].pop(wire, None) is None)

    @rule(s=STATIONS)
    def start_or_stop(self, s):
        server = self.servers[s]
        if server.running:
            server.stop()
            self.gets[s].pop(server.put_port, None)
        else:
            server.start()
            self.gets[s][server.put_port] = True

    @precondition(lambda self: sum(self.alive) > 1)
    @rule(s=STATIONS)
    def detach(self, s):
        self.net.detach(self.nics[s].address)
        self.alive[s] = False

    @rule(pick=PICKS)
    def probe_by_port(self, pick):
        wire = self.wire(pick)
        admitted = bool(self.holders(wire))
        assert self.prober.put(Message(dest=wire)) is admitted
        self.net.run()

    @rule(c=STATIONS, t=STATIONS, pipelined=st.booleans())
    def transact(self, c, t, pipelined):
        if c == t or not self.alive[c]:
            return
        client, port = self.nics[c], self.servers[t].put_port
        before = dict(self.net._round_robin)
        data = b"pipelined" if pipelined else b"blocking"
        request = Message(command=USER_BASE, data=data)

        def call():
            if pipelined:
                return trans_many(client, port, [request] * 3, self.rngs[c])
            return [trans(client, port, request, self.rngs[c])]

        if self.alive[t] and port in self.gets[t]:
            assert [(r.status, r.data) for r in call()] == (
                [(0, data)] * (3 if pipelined else 1))
        else:
            with pytest.raises(PortNotLocated):
                call()
        assert self.net._round_robin == before

    @invariant()
    def the_index_is_the_served_ports(self):
        served = {}
        for nic, gets, alive in zip(self.nics, self.gets, self.alive):
            for wire, indexed in gets.items():
                if alive and indexed:
                    served.setdefault(wire, []).append(nic.address)
        assert self.net._listeners == served
        assert set(self.net._round_robin) <= set(served)

    @invariant()
    def admission_is_a_scan_of_every_station(self):
        for nic, gets in zip(self.nics, self.gets):
            assert set(nic._sinks) == set(gets)
        for wire in self.seen:
            frame = Frame(self.prober.address, None, Message(dest=wire))
            assert self.net._admits(frame) is bool(self.holders(wire))


class DeferredIndexMachine(IndexMachine):
    network = staticmethod(lambda: SimNetwork(synchronous=False))


class DesIndexMachine(IndexMachine):
    network = staticmethod(lambda: SimNetwork(clock=VirtualClock()))


#: The bounded profile CI runs (the default would be 100 x 50 steps).
BOUNDED = settings(max_examples=30, stateful_step_count=40, deadline=None)
for machine in (IndexMachine, DeferredIndexMachine, DesIndexMachine):
    machine.TestCase.settings = BOUNDED
TestIndexAgainstModel = IndexMachine.TestCase
TestIndexAgainstModelDeferred = DeferredIndexMachine.TestCase
TestIndexAgainstModelDes = DesIndexMachine.TestCase
