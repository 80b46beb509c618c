"""Tests for the real UDP transport (laptop-scale 'hashlib and sockets')."""

import time

import pytest

from repro.core.ports import Port, PrivatePort
from repro.crypto.randomsrc import RandomSource
from repro.ipc.rpc import trans
from repro.net.message import Message
from repro.net.sockets import SocketNode


@pytest.fixture
def nodes():
    created = []

    def make():
        node = SocketNode()
        created.append(node)
        return node

    yield make
    for node in created:
        node.close()


pytestmark = pytest.mark.integration


class TestSocketTransport:
    def test_listen_put_poll(self, nodes):
        server, client = nodes(), nodes()
        g = PrivatePort(42)
        wire = server.listen(g)
        client.put(Message(dest=wire, data=b"over real UDP"),
                   dst_machine=server.address)
        frame = server.poll(g, timeout=2.0)
        assert frame is not None
        assert frame.message.data == b"over real UDP"
        assert frame.src == client.address

    def test_fbox_applied_on_egress(self, nodes):
        server, client = nodes(), nodes()
        g = PrivatePort(42)
        wire = server.listen(g)
        reply_secret = PrivatePort(777)
        client.put(
            Message(dest=wire, reply=Port(reply_secret.secret)),
            dst_machine=server.address,
        )
        frame = server.poll(g, timeout=2.0)
        assert frame.message.reply == reply_secret.public

    def test_rpc_over_sockets(self, nodes):
        server, client = nodes(), nodes()
        g = PrivatePort(9)

        def handler(frame):
            server.put(
                frame.message.reply_to(data=frame.message.data.upper()),
                dst_machine=frame.src,
            )

        wire = server.serve(g, handler)
        reply = trans(
            client,
            wire,
            Message(data=b"shout"),
            rng=RandomSource(seed=1),
            dst_machine=server.address,
            timeout=3.0,
        )
        assert reply.data == b"SHOUT"

    def test_port_addressed_broadcast_to_peers(self, nodes):
        server, client = nodes(), nodes()
        client.connect(server.address)
        g = PrivatePort(5)
        wire = server.listen(g)
        client.put(Message(dest=wire, data=b"found you"))
        frame = server.poll(g, timeout=2.0)
        assert frame is not None

    def test_garbage_datagrams_dropped(self, nodes):
        import socket

        server = nodes()
        g = PrivatePort(5)
        server.listen(g)
        raw_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        raw_sock.sendto(b"not an amoeba message", server.address)
        raw_sock.close()
        assert server.poll(g, timeout=0.3) is None

    def test_unadmitted_ports_dropped(self, nodes):
        server, client = nodes(), nodes()
        client.put(Message(dest=Port(12345), data=b"x"),
                   dst_machine=server.address)
        g = PrivatePort(5)
        server.listen(g)
        assert server.poll(g, timeout=0.2) is None

    def test_oversized_message_refused(self, nodes):
        client = nodes()
        with pytest.raises(ValueError):
            client.put(Message(data=b"x" * 70000), dst_machine=("127.0.0.1", 1))

    def test_context_manager(self):
        with SocketNode() as node:
            assert node.address[1] > 0

    def test_peer_snapshot_updates_on_connect(self, nodes):
        server, client = nodes(), nodes()
        assert client._peer_snapshot == ()
        client.connect(server.address)
        client.connect(server.address)  # deduplicated
        assert client._peer_snapshot == (server.address,)

    def test_admission_snapshot_tracks_listen_unlisten(self, nodes):
        server = nodes()
        g = PrivatePort(6)
        wire = server.listen(g)
        assert wire in server._sinks
        server.unlisten(g)
        assert wire not in server._sinks

    def test_buffered_egress_rpc(self):
        with SocketNode(buffer_egress=True) as server, \
                SocketNode(buffer_egress=True) as client:
            g = PrivatePort(9)

            def handler(frame):
                server.put(frame.message.reply_to(data=frame.message.data[::-1]),
                           dst_machine=frame.src)

            wire = server.serve(g, handler)
            reply = trans(client, wire, Message(data=b"abc"),
                          rng=RandomSource(seed=3),
                          dst_machine=server.address, timeout=3.0)
            assert reply.data == b"cba"

    def test_buffered_egress_flushes_at_watermark(self):
        with SocketNode(buffer_egress=True, flush_every=3) as sender, \
                SocketNode() as receiver:
            g = PrivatePort(4)
            wire = receiver.listen(g)
            for i in range(3):
                sender.put(Message(dest=wire, data=b"w%d" % i),
                           dst_machine=receiver.address)
            # The third put crossed the watermark: all three are on the
            # wire without anyone polling or pumping the sender.
            assert len(sender._egress) == 0
            got = sorted(
                receiver.poll(g, timeout=2.0).message.data for _ in range(3)
            )
            assert got == [b"w0", b"w1", b"w2"]

    def test_recv_batch_round_trip(self, nodes):
        """(Id kept.)  A burst of 50 lone datagrams — one pump iteration
        each, no carrier — round-trips in order over the real loopback
        wire."""
        server, client = nodes(), nodes()
        g = PrivatePort(9)

        def handler(frame):
            server.put(frame.message.reply_to(data=frame.message.data[::-1]),
                       dst_machine=frame.src)

        wire = server.serve(g, handler)
        n = 50
        reply_secret = PrivatePort(777)
        reply_wire = client.listen(reply_secret)
        for i in range(n):
            client.put(Message(dest=wire, reply=Port(reply_secret.secret),
                               data=b"m%03d" % i),
                       dst_machine=server.address)
        got = []
        for _ in range(n):
            frame = client.poll_wire(reply_wire, timeout=5.0)
            assert frame is not None
            got.append(frame.message.data)
        assert got == [(b"m%03d" % i)[::-1] for i in range(n)]

    def test_put_owned_bulk_aggregates(self, nodes):
        """A bulk burst travels in aggregate carriers yet every inner
        frame is admitted individually, in order."""
        server, client = nodes(), nodes()
        g = PrivatePort(6)
        wire = server.listen(g)
        batch = [Message(dest=wire, data=b"agg%d" % i) for i in range(10)]
        assert client.put_owned_bulk(batch, dst_machine=server.address) == 10
        got = [server.poll(g, timeout=5.0).message.data for _ in range(10)]
        assert got == [b"agg%d" % i for i in range(10)]

    def test_bulk_with_near_cap_frame_not_lost(self, nodes):
        """A frame near the datagram cap cannot ride a carrier (carrier
        overhead would push it past what the receiver reads); it must go
        out plain, in order, not silently truncated."""
        server, client = nodes(), nodes()
        g = PrivatePort(8)
        wire = server.listen(g)
        big = Message(dest=wire, data=b"B" * 59000)
        batch = [Message(dest=wire, data=b"first"), big,
                 Message(dest=wire, data=b"last")]
        assert client.put_owned_bulk(batch, dst_machine=server.address) == 3
        got = [server.poll(g, timeout=5.0).message.data for _ in range(3)]
        assert got == [b"first", b"B" * 59000, b"last"]

    def test_truncated_aggregate_carrier_dropped(self, nodes):
        import socket

        from repro.net.sockets import _AGG_MAGIC

        server = nodes()
        g = PrivatePort(5)
        wire = server.listen(g)
        inner = Message(dest=wire, data=b"whole").pack()
        # One whole frame, then a length prefix promising more bytes than
        # the datagram carries: the valid prefix is delivered, the
        # truncated tail is dropped like any other garbage.
        carrier = (
            _AGG_MAGIC
            + len(inner).to_bytes(4, "big") + inner
            + (1000).to_bytes(4, "big") + b"short"
        )
        raw_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        raw_sock.sendto(carrier, server.address)
        raw_sock.close()
        frame = server.poll(g, timeout=2.0)
        assert frame is not None and frame.message.data == b"whole"
        assert server.poll(g, timeout=0.2) is None

    def test_listen_fresh_and_unlisten_wire_many(self, nodes):
        node = nodes()
        secrets = [Port(100 + i) for i in range(8)]
        wires = node.listen_fresh(secrets)
        assert wires is not None and len(wires) == 8
        for wire in wires:
            assert wire in node._sinks
        # Re-registering the same fresh ports must refuse (collision).
        assert node.listen_fresh(secrets) is None
        # So must a batch that repeats a port or overlaps one live GET,
        # and a refused batch admits nothing.
        assert node.listen_fresh([Port(300), Port(300)]) is None
        assert node.listen_fresh([Port(301), secrets[0]]) is None
        assert set(node._sinks) == set(wires)
        node.unlisten_wire_many(wires)
        for wire in wires:
            assert wire not in node._sinks

    def test_trans_many_pipelined_over_sockets(self, nodes):
        """The socket fused lane: replies in request order over real UDP."""
        from repro.ipc.rpc import trans_many

        server, client = nodes(), nodes()
        g = PrivatePort(9)

        def handler(frame):
            server.put(frame.message.reply_to(data=frame.message.data.upper()),
                       dst_machine=frame.src)

        wire = server.serve(g, handler)
        requests = [Message(data=b"req-%02d" % i) for i in range(16)]
        replies = trans_many(client, wire, requests, rng=RandomSource(seed=4),
                             dst_machine=server.address, timeout=5.0)
        assert [r.data for r in replies] == [b"REQ-%02d" % i for i in range(16)]
        # No admission residue: every reply GET was withdrawn.
        assert client._sinks == {}

    def test_serve_batch_coalesces_bursts(self, nodes):
        """serve_batch delivers each ingress burst as one handler call."""
        server, client = nodes(), nodes()
        g = PrivatePort(7)
        batches = []
        wire = server.serve_batch(g, lambda frames: batches.append(len(frames)))
        n = 12
        client.put_owned_bulk(
            [Message(dest=wire, data=b"b%d" % i) for i in range(n)],
            dst_machine=server.address,
        )
        deadline = time.monotonic() + 5.0
        while sum(batches) < n:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert sum(batches) == n
        # The aggregated burst arrived in far fewer handler calls than
        # frames (one, unless the pump raced the carrier boundary).
        assert len(batches) < n

    def test_serve_batch_takes_over_a_listen_backlog(self, nodes):
        """Frames queued by an earlier listen() are the server's backlog:
        serve_batch drains them into the batch handler (each a batch of
        one, as on Nic) and later traffic goes to the handler directly."""
        server, client = nodes(), nodes()
        g = PrivatePort(7)
        wire = server.listen(g)
        for i in range(3):
            client.put(Message(dest=wire, data=b"early%d" % i),
                       dst_machine=server.address)
        deadline = time.monotonic() + 5.0
        while server._sinks[wire].qsize() < 3:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        seen = []
        assert server.serve_batch(
            g, lambda frames: seen.extend(f.message.data for f in frames)
        ) == wire
        assert seen == [b"early0", b"early1", b"early2"]
        client.put(Message(dest=wire, data=b"late"), dst_machine=server.address)
        while len(seen) < 4:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert seen[3] == b"late"
        assert server.handler_errors == 0

    def test_buffered_put_then_bulk_arrives_in_send_order(self):
        """Same-sender ordering: a datagram still in the egress buffer
        leaves before a bulk burst issued after it."""
        with SocketNode(buffer_egress=True) as sender, \
                SocketNode() as receiver:
            g = PrivatePort(4)
            wire = receiver.listen(g)
            sender.put(Message(dest=wire, data=b"first"),
                       dst_machine=receiver.address)
            assert len(sender._egress) == 1  # still buffered
            assert sender.put_owned_bulk(
                [Message(dest=wire, data=b"bulk%d" % i) for i in range(4)],
                dst_machine=receiver.address,
            ) == 4
            got = [receiver.poll(g, timeout=5.0).message.data
                   for _ in range(5)]
            assert got == [b"first", b"bulk0", b"bulk1", b"bulk2", b"bulk3"]

    def test_admission_table_under_concurrent_listeners(self, nodes):
        """Four threads listen_reply / unlisten_wire in a loop while a
        peer floods a served port: the pump's one lookup per datagram
        never trips over a writer, every flooded frame is delivered, and
        the table ends with the served port alone."""
        import sys
        import threading

        server, client = nodes(), nodes()
        served = []
        wire = server.serve(PrivatePort(11), served.append)
        stop = threading.Event()
        errors = []

        def churn(seed):
            rng = RandomSource(seed=seed)
            try:
                while not stop.is_set():
                    _, reply_wire = server.listen_reply(rng)
                    assert server.poll_wire(reply_wire) is None
                    server.unlisten_wire(reply_wire)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(seed,))
                   for seed in range(4)]
        flood = 400
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for start in range(0, flood, 16):
                # Paced in bursts so the loopback receive buffer never
                # overflows: a frame the kernel drops is not the pump's.
                client.put_owned_bulk(
                    [Message(dest=wire, data=b"%d" % i)
                     for i in range(start, start + 16)],
                    dst_machine=server.address,
                )
                deadline = time.monotonic() + 5.0
                while len(served) < start + 16:
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=5.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert server._pump.is_alive()
        assert (server.handler_errors, server.garbage_dropped) == (0, 0)
        assert [f.message.data for f in served] == [
            b"%d" % i for i in range(flood)]
        assert set(server._sinks) == {wire}

    def test_object_server_over_sockets(self, nodes):
        from repro.ipc.client import ServiceClient
        from repro.ipc.server import ObjectServer, command
        from repro.ipc.stdops import USER_BASE

        class Upper(ObjectServer):
            service_name = "upper"

            @command(USER_BASE)
            def _up(self, ctx):
                return ctx.ok(data=ctx.request.data.upper())

        server_node, client_node = nodes(), nodes()
        server = Upper(server_node, rng=RandomSource(seed=1)).start()
        client_node.connect(server_node.address)
        client = ServiceClient(
            client_node,
            server.put_port,
            rng=RandomSource(seed=2),
            expect_signature=server.signature_image,
            timeout=3.0,
        )
        assert client.call(USER_BASE, data=b"udp works").data == b"UDP WORKS"


class TestPumpCountsWhatItDrops:
    """Each arm of the pump that swallows a failure counts it and keeps
    the last exception — and the pump survives to deliver what follows."""

    @staticmethod
    def _boom(*args):
        raise RuntimeError("handler bug")

    @staticmethod
    def _wait_for(condition):
        deadline = time.monotonic() + 2.0
        while not condition() and time.monotonic() < deadline:
            time.sleep(0.005)
        assert condition()

    def _still_delivers(self, server, client):
        g = PrivatePort(4242)
        wire = server.listen(g)
        client.put(Message(dest=wire, data=b"after"),
                   dst_machine=server.address)
        frame = server.poll(g, timeout=2.0)
        assert frame is not None and frame.message.data == b"after"

    def _assert_counted(self, server, client, errors=1, garbage=0):
        self._wait_for(
            lambda: server.handler_errors + server.garbage_dropped
            == errors + garbage
        )
        assert server.handler_errors == errors
        assert server.garbage_dropped == garbage
        assert server.last_error is not None
        self._still_delivers(server, client)

    def test_quiet_pump_counts_nothing(self, nodes):
        server, client = nodes(), nodes()
        self._still_delivers(server, client)
        assert (server.handler_errors, server.garbage_dropped,
                server.last_error) == (0, 0, None)

    def test_control_handler(self, nodes):
        from repro.net.sockets import CTL_JOIN

        server, client = nodes(), nodes()
        server.on_control(self._boom)
        client.send_control(CTL_JOIN, b"x", dst=server.address)
        self._assert_counted(server, client)
        assert isinstance(server.last_error, RuntimeError)

    def test_undecodable_datagram(self, nodes):
        import socket

        server, client = nodes(), nodes()
        raw_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        raw_sock.sendto(b"not a message", server.address)
        raw_sock.close()
        self._assert_counted(server, client, errors=0, garbage=1)

    def test_broadcast_handler(self, nodes):
        server, client = nodes(), nodes()
        server.on_broadcast(self._boom)
        client.put(Message(dest=Port(0xBEEF)), dst_machine=server.address)
        self._assert_counted(server, client)

    def test_per_frame_server_handler(self, nodes):
        server, client = nodes(), nodes()
        wire = server.serve(PrivatePort(31), self._boom)
        client.put(Message(dest=wire), dst_machine=server.address)
        self._assert_counted(server, client)

    def test_batch_server_handler(self, nodes):
        server, client = nodes(), nodes()
        wire = server.serve_batch(PrivatePort(32), self._boom)
        client.put(Message(dest=wire), dst_machine=server.address)
        self._assert_counted(server, client)
