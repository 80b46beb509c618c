"""Tests for the virtual-clock discrete-event network mode.

The DES invariants under test:

* time only moves on event delivery or a timed-out wait, never from the
  host clock — so identical seeds reproduce identical event orders and
  final clock readings;
* a serial transaction costs exactly one virtual RTT, a 16-deep
  pipelined batch costs one RTT for the whole batch (the latency
  amortization the paper's §4 economics predict);
* blocking polls and LOCATE timeouts *consume* virtual time;
* admission is re-checked at the arrival instant, so frames to stations
  that died in flight drop like packets to a dead host.
"""

import random
import time

import pytest

from repro.core.ports import Port, PrivatePort
from repro.crypto.randomsrc import RandomSource
from repro.errors import PortNotLocated, RPCTimeout
from repro.ipc.locate import Locator, install_locate_responder
from repro.ipc.rpc import trans, trans_many
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE
from repro.net.faults import FaultPlan
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.net.sched import LatencyModel, VirtualClock

RTT_MS = 2.8
RTT = RTT_MS / 1000.0


class EchoServer(ObjectServer):
    service_name = "des test echo"

    @command(USER_BASE)
    def _echo(self, ctx):
        return ctx.ok(data=ctx.request.data)


def des_network(**latency_kwargs):
    latency_kwargs.setdefault("rtt_ms", RTT_MS)
    return SimNetwork(clock=VirtualClock(), latency=LatencyModel(**latency_kwargs))


@pytest.fixture
def world():
    net = des_network()
    server = EchoServer(Nic(net), rng=RandomSource(seed=1)).start()
    client = Nic(net)
    return net, server, client


class TestVirtualClock:
    def test_advance_to_is_monotonic(self):
        clock = VirtualClock()
        clock.advance_to(5.0)
        clock.advance_to(2.0)  # time never runs backwards
        assert clock.now == 5.0
        clock.advance(1.5)
        assert clock.now == 6.5

    def test_latency_model_rejects_negative(self):
        with pytest.raises(ValueError):
            LatencyModel(rtt_ms=-1)

    def test_latency_only_implies_a_clock(self):
        net = SimNetwork(latency=LatencyModel(rtt_ms=2.0))
        assert net.clock is not None
        assert not net.synchronous

    def test_max_queue_depth_rejected_in_des_mode(self):
        # The DES wire has no per-port ingress queues to bound; silently
        # voiding the drop-and-count contract would be worse than refusing.
        with pytest.raises(ValueError):
            SimNetwork(clock=VirtualClock(), max_queue_depth=8)

    def test_jitter_is_seeded(self):
        def draws(seed):
            model = LatencyModel(rtt_ms=2.0, jitter_ms=1.0, seed=seed)
            frame = None  # jitter path never touches the frame
            return [model.delay(frame) for _ in range(16)]

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)


class TestVirtualTimeDelivery:
    def test_send_does_not_deliver_without_time(self, world):
        net, _, client = world
        receiver = Nic(net)
        wire = receiver.listen(Port(777))
        assert client.put(Message(dest=wire, command=1))
        assert receiver.poll_wire(wire) is None  # still in flight
        assert net.pending == 1
        net.pump()
        assert net.clock.now == pytest.approx(RTT / 2)
        assert receiver.poll_wire(wire).message.command == 1

    def test_unadmitted_port_rejected_at_send(self, world):
        net, _, client = world
        assert not client.put(Message(dest=Port(0xDEAD), command=1))
        assert net.pending == 0

    def test_ties_deliver_in_send_order(self, world):
        net, _, client = world
        receiver = Nic(net)
        wire = receiver.listen(Port(778))
        for i in range(5):
            client.put(Message(dest=wire, command=10 + i))
        net.pump()
        got = []
        while True:
            frame = receiver.poll_wire(wire)
            if frame is None:
                break
            got.append(frame.message.command)
        assert got == [10, 11, 12, 13, 14]

    def test_detach_in_flight_drops_dead(self, world):
        net, _, client = world
        receiver = Nic(net)
        wire = receiver.listen(Port(779))
        assert client.put(Message(dest=wire, command=1))
        net.detach(receiver.address)
        net.pump()
        assert net.loop.dropped_dead == 1
        assert net.frames_dropped == 1

    def test_reset_stats_zeroes_every_counter(self, world):
        net, _, client = world
        receiver = Nic(net)
        wire = receiver.listen(Port(780))
        net.loop.call_at(0.001, lambda: None)
        assert client.put(Message(dest=wire, command=1))
        assert client.put(Message(dest=wire, command=2))
        net.detach(receiver.address)
        net.pump()
        scheduler = net.stats()["scheduler"]
        assert (scheduler["scheduled"], scheduler["dispatched"],
                scheduler["dropped_dead"], scheduler["timers_fired"]) == (
            2, 2, 2, 1)
        net.reset_stats()
        scheduler = net.stats()["scheduler"]
        assert scheduler.pop("virtual_now") == net.clock.now  # time stays
        assert set(scheduler.values()) == {0}

    @pytest.mark.parametrize("carrier", ("broadcast", "unicast"))
    def test_a_delayed_and_duplicated_frame_arrives_at_two_instants(
            self, carrier):
        """The duplicate is the wire's second copy of the frame *as
        transmitted*, with a jitter of its own: it arrives ``jitter``
        after the undisturbed instant, not ``delay + jitter`` — so it
        may overtake the delayed original.  One rule for unicast frames
        and broadcasts (a broadcast's copy waited out the delay as well
        before the fault plane had one ``_decide``)."""
        seed, delay_ms = 5, 4.0
        net = SimNetwork(
            clock=VirtualClock(), latency=LatencyModel(rtt_ms=RTT_MS),
            faults=FaultPlan(seed=seed, delay=1.0, duplicate=1.0,
                             delay_ms=delay_ms))
        sender, receiver = Nic(net), Nic(net)
        heard = []

        def hear(frame):
            heard.append(net.clock.now)

        if carrier == "broadcast":
            receiver.on_broadcast(hear)
            sender.put_broadcast(Message(command=1))
        else:
            sender.put(Message(dest=receiver.serve(Port(781), hear)))
        net.pump()
        twin = random.Random(seed)
        twin.random()  # the delay roll
        delay = delay_ms / 1000.0 * (0.5 + twin.random())
        twin.random()  # the duplicate roll
        jitter = delay_ms / 1000.0 * twin.random()
        assert jitter < delay  # this seed: the copy overtakes
        assert heard == pytest.approx([RTT / 2 + jitter, RTT / 2 + delay])
        assert net.stats()["faults"]["injected_delays"] == 1
        assert net.stats()["faults"]["injected_duplicates"] == 1

    def test_timed_poll_consumes_virtual_not_wall_time(self, world):
        net, _, client = world
        client.listen(Port(555))
        wall = time.monotonic()
        assert client.poll(Port(555), timeout=30.0) is None
        assert time.monotonic() - wall < 5.0  # 30 virtual seconds, not wall
        assert net.clock.now == pytest.approx(30.0)


class TestDESTransactions:
    def test_serial_trans_costs_one_rtt(self, world):
        net, server, client = world
        rng = RandomSource(seed=2)
        request = Message(command=USER_BASE, data=b"x")
        start = net.clock.now
        reply = trans(client, server.put_port, request, rng)
        assert reply.data == b"x"
        assert net.clock.now - start == pytest.approx(RTT)

    def test_pipelined_batch_costs_one_rtt_total(self, world):
        net, server, client = world
        rng = RandomSource(seed=3)
        requests = [Message(command=USER_BASE, data=b"x")] * 16
        start = net.clock.now
        replies = trans_many(client, server.put_port, requests, rng)
        assert len(replies) == 16
        # 16 transactions, one RTT of virtual time: the >= 8x
        # amortization the paper's latency economics predict (here 16x).
        assert net.clock.now - start == pytest.approx(RTT)

    def test_trans_timeout_consumes_virtual_timeout(self, world):
        net, _, client = world
        dead_port = Nic(net).listen(Port(9999))  # admitted, never answered
        start = net.clock.now
        with pytest.raises(RPCTimeout):
            trans(
                client,
                dead_port,
                Message(command=USER_BASE),
                RandomSource(seed=4),
                timeout=0.25,
            )
        assert net.clock.now - start == pytest.approx(0.25)

    def test_nested_transaction_inside_handler(self):
        """A server that calls another server mid-request: the nested
        round trip steps the same heap, so the outer transaction costs
        two RTTs of virtual time."""
        net = des_network()
        inner = EchoServer(Nic(net), rng=RandomSource(seed=5)).start()
        outer_nic = Nic(net)
        rng = RandomSource(seed=6)

        class Proxy(ObjectServer):
            @command(USER_BASE)
            def _proxy(self, ctx):
                nested = trans(
                    outer_nic, inner.put_port, Message(
                        command=USER_BASE, data=ctx.request.data
                    ), rng,
                )
                return ctx.ok(data=nested.data + b"!")

        proxy = Proxy(outer_nic, rng=RandomSource(seed=7)).start()
        client = Nic(net)
        start = net.clock.now
        reply = trans(
            client, proxy.put_port, Message(command=USER_BASE, data=b"hi"),
            RandomSource(seed=8),
        )
        assert reply.data == b"hi!"
        assert net.clock.now - start == pytest.approx(2 * RTT)

    def test_bandwidth_adds_serialization_delay(self):
        net = des_network(bytes_per_sec=10_000)
        receiver = Nic(net)
        wire = receiver.listen(Port(80))
        sender = Nic(net)
        message = Message(dest=wire, command=1, data=b"d" * 100)
        size = len(net._nics[sender.address].fbox.transform_egress(message).pack())
        sender.put(message)
        net.pump()
        assert net.clock.now == pytest.approx(RTT / 2 + size / 10_000)


class TestDeterminism:
    def _run(self, seed):
        """One full workload: pipelined batches with jitter; returns the
        final clock reading and the delivery order seen by a tap."""
        net = SimNetwork(
            clock=VirtualClock(),
            latency=LatencyModel(rtt_ms=RTT_MS, jitter_ms=0.7, seed=seed),
        )
        order = []
        net.add_tap(lambda frame: order.append(frame.message.command))
        server = EchoServer(Nic(net), rng=RandomSource(seed=1)).start()
        client = Nic(net)
        rng = RandomSource(seed=2)
        for batch in range(4):
            requests = [
                Message(command=USER_BASE, data=bytes([batch, i]))
                for i in range(8)
            ]
            trans_many(client, server.put_port, requests, rng)
        return net.clock.now, order

    def test_same_seed_same_event_order_and_clock(self):
        assert self._run(13) == self._run(13)

    def test_different_seed_different_clock(self):
        now_a, _ = self._run(13)
        now_b, _ = self._run(14)
        assert now_a != now_b  # jitter draws differ


class TestDESLocate:
    def test_locate_costs_one_rtt(self):
        net = des_network()
        server_nic = Nic(net)
        install_locate_responder(server_nic)
        wire = server_nic.listen(PrivatePort(1234))
        client_nic = Nic(net)
        locator = Locator(client_nic, rng=RandomSource(seed=9))
        start = net.clock.now
        assert locator.locate(wire) == server_nic.address
        # Broadcast out (half RTT) + HERE unicast back (half RTT).
        assert net.clock.now - start == pytest.approx(RTT)

    def test_unanswered_locate_consumes_virtual_timeout(self):
        net = des_network()
        Nic(net)  # a station with no responder
        client_nic = Nic(net)
        locator = Locator(client_nic, rng=RandomSource(seed=10))
        start = net.clock.now
        with pytest.raises(PortNotLocated):
            locator.locate(Port(0xDEAD), timeout=0.5)
        assert net.clock.now - start == pytest.approx(0.5)

    def test_loop_stats_expose_virtual_now(self):
        net = des_network()
        stats = net.stats()
        assert stats["scheduler"]["virtual_now"] == net.clock.now
