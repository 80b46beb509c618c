"""The event-loop delivery engine: queueing, fairness, overload, compat.

Deferred delivery must preserve every externally visible contract of the
synchronous simulator (admission semantics, §2.4 source stamping, the
routing index's leak discipline) while adding what the synchronous model
cannot express: frames genuinely *in flight*, per-port queue depths,
drops under overload, and many transactions outstanding at once.
"""

import pytest

from repro.core.ports import Port, PrivatePort
from repro.crypto.randomsrc import RandomSource
from repro.errors import RPCTimeout
from repro.ipc.rpc import trans, trans_many
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.testing.world import EchoServer as Echo


class TestDeferredDelivery:
    def test_send_is_enqueue_until_pumped(self):
        net = SimNetwork(synchronous=False, auto_drain=False)
        a, b = Nic(net), Nic(net)
        wire = b.listen(Port(5))
        assert a.put(Message(dest=wire))
        assert b.poll(Port(5)) is None  # not delivered yet
        assert net.pending == 1
        assert net.pump() == 1
        assert b.poll(Port(5)) is not None
        assert net.pending == 0

    def test_send_still_reports_admission(self):
        net = SimNetwork(synchronous=False, auto_drain=False)
        a = Nic(net)
        assert not a.put(Message(dest=Port(404)))
        assert net.frames_dropped == 1
        assert net.pending == 0

    def test_unicast_admission_checked_against_filter(self):
        net = SimNetwork(synchronous=False, auto_drain=False)
        a, b = Nic(net), Nic(net)
        b.listen(Port(5))
        # Unicast to a machine without a GET on that port is refused.
        assert not a.put(Message(dest=Port(6)), dst_machine=b.address)

    def test_dispatch_rechecks_live_filters(self):
        # Admitted at enqueue, but the listener withdraws its GET before
        # the pump: the frame is dropped like a packet to a dead host.
        net = SimNetwork(synchronous=False, auto_drain=False)
        a, b = Nic(net), Nic(net)
        b.listen(Port(5))
        assert a.put(Message(dest=b.fbox.listen_port(Port(5))))
        b.unlisten(Port(5))
        assert net.pump() == 1
        assert net.loop.dropped_dead == 1
        assert net.frames_dropped == 1

    def test_dispatch_survives_detach_of_target(self):
        net = SimNetwork(synchronous=False, auto_drain=False)
        a, b = Nic(net), Nic(net)
        wire = b.listen(Port(5))
        assert a.put(Message(dest=wire), dst_machine=b.address)
        net.detach(b.address)
        assert net.pump() == 1
        assert net.loop.dropped_dead == 1

    def test_pump_budget_and_rotation(self):
        net = SimNetwork(synchronous=False, auto_drain=False)
        a = Nic(net)
        r1, r2 = Nic(net), Nic(net)
        w1, w2 = r1.listen(Port(1)), r2.listen(Port(2))
        for _ in range(3):
            a.put(Message(dest=w1))
            a.put(Message(dest=w2))
        # Budgeted pump alternates ports: after 2 dispatches each port
        # has received exactly one frame.
        assert net.pump(2) == 2
        assert len(r1._sinks[w1]) == len(r2._sinks[w2]) == 1
        assert net.pump() == 4

    def test_queue_depth_visible(self):
        net = SimNetwork(synchronous=False, auto_drain=False)
        a, b = Nic(net), Nic(net)
        wire = b.listen(Port(5))
        for _ in range(7):
            a.put(Message(dest=wire))
        assert len(net.loop._queues[wire]) == 7
        assert net.loop.max_depth_seen == 7
        assert net.stats()["scheduler"]["pending"] == 7

    def test_overload_drops_are_counted(self):
        net = SimNetwork(synchronous=False, auto_drain=False, max_queue_depth=4)
        a, b = Nic(net), Nic(net)
        wire = b.listen(Port(5))
        results = [a.put(Message(dest=wire)) for _ in range(10)]
        # Overflow is a silent loss at the sender (the port IS admitted;
        # a real network drops in a full buffer without telling anyone) —
        # visible only in the counters and the missing deliveries.
        assert results == [True] * 10
        assert net.loop.dropped_overflow == 6
        assert net.frames_dropped == 6
        assert net.pump() == 4

    def test_overflow_not_misreported_as_port_not_located(self):
        from repro.errors import RPCTimeout

        net = SimNetwork(synchronous=False, auto_drain=False, max_queue_depth=1)
        nic = Nic(net)
        wire = nic.serve(PrivatePort(5), lambda frame: None)
        Nic(net).put(Message(dest=wire))  # fill the queue
        client = Nic(net)
        # A server IS listening; a full queue must surface as loss (a
        # timeout), never as PortNotLocated.
        with pytest.raises(RPCTimeout):
            trans(client, wire, Message(), RandomSource(seed=1), timeout=0.05)

    def test_no_queue_residue_after_drain(self):
        net = SimNetwork(synchronous=False, auto_drain=False)
        a, b = Nic(net), Nic(net)
        wire = b.listen(Port(5))
        for _ in range(5):
            a.put(Message(dest=wire))
        net.pump()
        assert net.loop._queues == {}
        assert not net.loop._ready

    def test_raising_handler_keeps_remainder_queued(self):
        # A per-frame handler that raises aborts the pump with only its
        # own frame consumed; the rest stay queued for the next pump.
        net = SimNetwork(synchronous=False, auto_drain=False)
        a, b = Nic(net), Nic(net)
        taken = []

        def handler(frame):
            taken.append(frame)
            raise RuntimeError("handler crash")

        wire = b.serve(PrivatePort(5), handler)
        for _ in range(5):
            a.put(Message(dest=wire))
        with pytest.raises(RuntimeError):
            net.pump()
        assert len(taken) == 1
        assert net.pending == 4
        with pytest.raises(RuntimeError):
            net.pump()
        assert len(taken) == 2
        assert net.pending == 3

    def test_source_still_unforgeable(self):
        net = SimNetwork(synchronous=False, auto_drain=False)
        a, b = Nic(net), Nic(net)
        wire = b.listen(Port(5))
        a.put(Message(dest=wire))
        net.pump()
        assert b.poll(Port(5)).src == a.address


class TestOverflowContract:
    """Admitted, then lost — stated once for every way onto the wire: a
    frame beyond ``max_queue_depth`` still counts as accepted (the port
    *is* admitted) and costs ``frames_dropped`` and ``dropped_overflow``
    one each; nothing else tells the sender."""

    DEPTH, EXTRA = 4, 3

    @staticmethod
    def offer(way, nic, wire, dst, count):
        """Put ``count`` numbered frames on the wire through one of
        SimNetwork's three ingress methods; returns how many it took."""
        messages = [Message(dest=wire, data=bytes([i])) for i in range(count)]
        if way == "send":
            return sum(nic.put(m, dst) for m in messages)
        if way == "send_bulk":
            return nic.put_owned_bulk(messages, dst)
        return nic.put_owned_unicast_bulk([(m, dst) for m in messages])

    @staticmethod
    def received(nic, wire):
        frames = iter(lambda: nic.poll_wire(wire), None)
        return [frame.message.data[0] for frame in frames]

    @pytest.mark.parametrize("way", ["send", "send_bulk", "send_unicast_bulk"])
    def test_queue_at_its_bound(self, way):
        net = SimNetwork(synchronous=False, auto_drain=False,
                         max_queue_depth=self.DEPTH)
        a, b = Nic(net), Nic(net)
        wire = b.listen(Port(5))
        offered = self.DEPTH + self.EXTRA
        assert self.offer(way, a, wire, b.address, offered) == offered
        assert net.frames_sent == offered
        assert net.loop.dropped_overflow == self.EXTRA
        assert net.frames_dropped == self.EXTRA
        assert net.pump() == self.DEPTH
        assert net.frames_delivered == self.DEPTH
        # The tail is what was lost.
        assert self.received(b, wire) == list(range(self.DEPTH))

    @pytest.mark.parametrize("way", ["send", "send_unicast_bulk"])
    def test_express_lane_sink_at_its_bound(self, way):
        """Replies sent from inside a drain go straight into the waiting
        client's queue — up to the bound.  The next ones line up on the
        port's ingress queue, and only what overflows *that* is lost."""
        net = SimNetwork(synchronous=False, auto_drain=False,
                         max_queue_depth=self.DEPTH)
        server, client = Nic(net), Nic(net)
        reply_wire = client.listen(Port(6))
        offered = 2 * self.DEPTH + self.EXTRA
        took = []

        def handler(frame):
            took.append(self.offer(way, server, reply_wire, client.address,
                                   offered))
            # DEPTH expressed (delivered already), DEPTH queued.
            assert net.frames_delivered == self.DEPTH
            assert len(net.loop._queues[reply_wire]) == self.DEPTH

        wire = server.serve(PrivatePort(7), handler)
        assert Nic(net).put(Message(dest=wire))
        net.pump()
        assert took == [offered]
        assert net.loop.dropped_overflow == self.EXTRA
        assert net.frames_dropped == self.EXTRA
        assert net.frames_delivered == 1 + 2 * self.DEPTH
        assert self.received(client, reply_wire) == list(range(2 * self.DEPTH))


class TestAutoDrainCompat:
    def test_blocking_trans_unchanged(self):
        net = SimNetwork(synchronous=False)  # auto_drain defaults on
        server = Echo(Nic(net), rng=RandomSource(seed=1)).start()
        client = Nic(net)
        reply = trans(client, server.put_port, Message(command=USER_BASE,
                      data=b"x"), RandomSource(seed=2))
        assert reply.data == b"x"
        assert net.pending == 0

    def test_round_robin_across_replicas(self):
        net = SimNetwork(synchronous=False)
        first = Echo(Nic(net), rng=RandomSource(seed=1)).start()
        second = Echo(Nic(net), rng=RandomSource(seed=2),
                      get_port=first.get_port,
                      signature=first.signature).start()
        client = Nic(net)
        rng = RandomSource(seed=3)
        for _ in range(8):
            trans(client, first.put_port, Message(command=USER_BASE), rng)
        assert first.request_counts[USER_BASE] == 4
        assert second.request_counts[USER_BASE] == 4

    def test_handler_sends_enqueue_without_recursion(self):
        # While the loop is draining, a handler's own put must enqueue,
        # not recurse — the loop's drain flag guards re-entry.
        net = SimNetwork(synchronous=False)
        depths = []
        nic = Nic(net)

        def handler(frame):
            depths.append(net.loop._draining)
            nic.put(frame.message.reply_to())

        nic.serve(PrivatePort(5), handler)
        client = Nic(net)
        reply = trans(client, nic.fbox.listen_port(Port(5)), Message(),
                      RandomSource(seed=1))
        assert reply.is_reply
        assert depths == [True]


class TestPipelinedTimeout:
    def test_unanswered_pipeline_times_out_clean(self):
        net = SimNetwork(synchronous=False, auto_drain=False)
        nic = Nic(net)
        nic.serve(PrivatePort(5), lambda frame: None)  # swallows requests
        client = Nic(net)
        wire = nic.fbox.listen_port(Port(5))
        with pytest.raises(RPCTimeout):
            trans_many(client, wire, [Message() for _ in range(4)],
                       rng=RandomSource(seed=1), timeout=0.05)
        # The failed batch left no reply GETs behind.
        assert len(client._sinks) == 0
        assert set(net._listeners) == {wire}


class TestBatchLane:
    """The fused trans_many lane must be behavior-identical to N
    one-at-a-time AsyncTrans — only the bookkeeping is batched."""

    def test_fused_and_generic_replies_identical(self):
        payloads = [b"p%d" % i for i in range(12)]

        def run(net):
            server = Echo(Nic(net), rng=RandomSource(seed=1)).start()
            client = Nic(net)
            replies = trans_many(
                client, server.put_port,
                [Message(command=USER_BASE, data=p) for p in payloads],
                rng=RandomSource(seed=2),
            )
            return [(r.data, r.status, r.is_reply) for r in replies]

        deferred = run(SimNetwork(synchronous=False, auto_drain=False))
        synchronous = run(SimNetwork())
        assert deferred == synchronous

    def test_one_way_batch_matches_one_way(self):
        from repro.net.fbox import FBox

        fbox = FBox()
        ports = [Port(100 + i) for i in range(20)]
        assert fbox.one_way_batch(ports) == [fbox.one_way(p) for p in ports]

    def test_put_many_counts_accepted(self):
        net = SimNetwork()
        a, b = Nic(net), Nic(net)
        wire = b.listen(Port(5))
        batch = [Message(dest=wire), Message(dest=Port(404)), Message(dest=wire)]
        assert a.put_many(batch) == 2
        assert len(b._sinks[wire]) == 2

    def test_serve_batch_on_synchronous_network(self):
        net = SimNetwork()
        nic = Nic(net)
        runs = []
        wire = nic.serve_batch(PrivatePort(5), runs.append)
        Nic(net).put(Message(dest=wire, data=b"one"))
        # Each synchronous delivery arrives as a batch of one.
        assert [len(r) for r in runs] == [1]
        assert runs[0][0].message.data == b"one"

    def test_bulk_overflow_drops_tail_and_times_out_clean(self):
        net = SimNetwork(synchronous=False, auto_drain=False,
                         max_queue_depth=8)
        server = Echo(Nic(net), rng=RandomSource(seed=1)).start()
        client = Nic(net)
        requests = [Message(command=USER_BASE, data=b"x")] * 12
        with pytest.raises(RPCTimeout):
            trans_many(client, server.put_port, requests,
                       rng=RandomSource(seed=2), timeout=0.05)
        assert net.loop.dropped_overflow == 4
        # Every reply GET was withdrawn on the failure path.
        assert len(client._sinks) == 0

    def test_pipelined_with_client_signature(self):
        net = SimNetwork(synchronous=False, auto_drain=False)
        seen = []

        class Audited(ObjectServer):
            service_name = "audited"

            @command(USER_BASE)
            def _op(self, ctx):
                seen.append(ctx.request.signature)
                return ctx.ok()

        server = Audited(Nic(net), rng=RandomSource(seed=1)).start()
        client = Nic(net)
        client_sig = PrivatePort(777)
        trans_many(client, server.put_port, [Message(command=USER_BASE)] * 3,
                   rng=RandomSource(seed=2), signature=client_sig)
        # The F-box one-ways the signature secret: servers see F(S).
        assert seen == [client_sig.public] * 3

    def test_pipelined_reply_signature_screening(self):
        net = SimNetwork(synchronous=False, auto_drain=False)
        server = Echo(Nic(net), rng=RandomSource(seed=1)).start()
        client = Nic(net)
        replies = trans_many(client, server.put_port,
                             [Message(command=USER_BASE, data=b"y")] * 4,
                             rng=RandomSource(seed=2),
                             expect_signature=server.signature_image)
        assert [r.data for r in replies] == [b"y"] * 4


class TestBroadcastCache:
    def test_broadcast_after_attach_and_detach(self):
        net = SimNetwork()
        sender = Nic(net)
        receivers = [Nic(net) for _ in range(3)]
        seen = []
        for nic in receivers:
            nic.on_broadcast(lambda frame, nic=nic: seen.append(nic.address))
        assert net.broadcast(sender, Message(dest=Port(1))) == 3
        # The cached station list must notice topology changes.
        net.detach(receivers[0].address)
        late = Nic(net)
        late.on_broadcast(lambda frame: seen.append(late.address))
        seen.clear()
        assert net.broadcast(sender, Message(dest=Port(1))) == 3
        assert seen == sorted(seen)
        assert receivers[0].address not in seen
        assert late.address in seen
