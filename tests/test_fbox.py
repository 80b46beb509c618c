"""Tests for the F-box transformation (Fig. 1)."""

import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ports import NULL_PORT, Port, PrivatePort
from repro.crypto.oneway import default_oneway
from repro.crypto.randomsrc import RandomSource
from repro.ipc.rpc import trans
from repro.ipc.stdops import USER_BASE
from repro.net.fbox import FBox
from repro.net.message import Message
from repro.testing.world import World

#: What a null header field must never become on the wire.
F_OF_NULL = Port(default_oneway()(0))


def f(value):
    """The reference: F for any port but the null one, which passes."""
    return Port(default_oneway()(value)) if value else NULL_PORT


class TestOneWay:
    def test_applies_f(self):
        fbox = FBox()
        assert fbox.one_way(Port(77)) == Port(default_oneway()(77))

    def test_null_stays_null(self):
        assert FBox().one_way(NULL_PORT) == NULL_PORT


class TestEgress:
    def test_destination_untouched(self):
        # "The F-box on the sender's side does not perform any
        # transformation on the P field of the outgoing message."
        fbox = FBox()
        message = Message(dest=Port(123), reply=Port(456), signature=Port(789))
        out = fbox.transform_egress(message)
        assert out.dest == Port(123)

    def test_reply_and_signature_one_wayed(self):
        fbox = FBox()
        message = Message(dest=Port(1), reply=Port(456), signature=Port(789))
        out = fbox.transform_egress(message)
        assert out.reply == fbox.one_way(Port(456))
        assert out.signature == fbox.one_way(Port(789))
        assert out.reply != Port(456)

    def test_null_fields_stay_null(self):
        out = FBox().transform_egress(Message(dest=Port(1)))
        assert out.reply == NULL_PORT
        assert out.signature == NULL_PORT

    def test_null_fields_take_the_cache_hit_arm(self):
        # The null port is falsy (Port is an int), so the egress cache
        # probe must test `is None`: a null reply or signature is a hit
        # whose image is NULL_PORT itself — no call into F, and no
        # detour through one_way() either.
        f_calls, slow_arm = [], []

        def f(value):
            f_calls.append(value)
            return default_oneway()(value)

        fbox = FBox(oneway=f)
        one_way = fbox.one_way
        fbox.one_way = lambda port: slow_arm.append(port) or one_way(port)
        for message in (
            Message(dest=Port(1)),
            Message(dest=Port(1), reply=Port(0), signature=Port(0)),
        ):
            for out in (
                fbox.transform_egress(message),
                fbox.transform_egress_owned(message),
            ):
                assert out.reply is NULL_PORT
                assert out.signature is NULL_PORT
        assert f_calls == [] and slow_arm == []
        # A non-null field still goes through F exactly once.
        out = fbox.transform_egress(Message(dest=Port(1), reply=Port(456)))
        assert out.signature is NULL_PORT
        assert f_calls == [456] and slow_arm == [Port(456)]

    def test_original_not_mutated(self):
        message = Message(reply=Port(456))
        FBox().transform_egress(message)
        assert message.reply == Port(456)

    def test_payload_untouched(self):
        message = Message(dest=Port(1), data=b"payload", command=9, offset=3)
        out = FBox().transform_egress(message)
        assert (out.data, out.command, out.offset) == (b"payload", 9, 3)


class TestListenPort:
    def test_server_with_secret_listens_on_put_port(self):
        # GET(G) must listen on exactly P = F(G): that is how clients
        # reach the server.
        fbox = FBox()
        g = PrivatePort(424242)
        assert fbox.listen_port(Port(g.secret)) == g.public

    def test_intruder_with_put_port_listens_elsewhere(self):
        # GET(P) listens on the useless F(P) — the impersonation defence.
        fbox = FBox()
        g = PrivatePort(424242)
        put_port = g.public
        assert fbox.listen_port(put_port) != put_port

    def test_double_application_differs(self):
        fbox = FBox()
        p = Port(5)
        assert fbox.one_way(fbox.one_way(p)) != fbox.one_way(p)


class WatchedFBox(FBox):
    """An F-box that remembers every dict ``_images`` was ever bound to."""

    tables = ()

    @property
    def _images(self):
        return self.tables[-1]

    @_images.setter
    def _images(self, table):
        self.tables += (table,)


small_ports = st.integers(min_value=0, max_value=12).map(Port)
steps = st.one_of(
    st.tuples(st.just("one_way"), small_ports),
    st.tuples(st.just("one_way_batch"), st.lists(small_ports, max_size=10)),
    st.tuples(st.sampled_from(("transform_egress", "transform_egress_owned")),
              small_ports, small_ports),
)


class TestTheCacheBound:
    """The image cache holds at most ``PORT_CACHE_MAX`` entries and is
    then dropped wholesale.  A flush must not be observable: same
    images, null stays null, from whichever thread and at any instant."""

    def test_a_flush_never_shows_a_table_without_its_null_seed(
            self, port_cache_max):
        # Pump-thread replies and client sends share a SocketNode's
        # F-box.  This is the second thread, placed at the one instant
        # that used to matter: inside the flush, after ``clear()`` and
        # before the re-seed, where a null field missed, was computed
        # as F(0) and went out on the wire.
        fbox = FBox()
        mid_flush = []

        class Probing(dict):
            def clear(self):
                super().clear()
                out = fbox.transform_egress_owned(Message(dest=Port(1)))
                mid_flush.append((out.reply, out.signature))

        def arm():  # a flush may have rebound the table to a plain dict
            fbox._images = Probing(fbox._images)

        with port_cache_max(4):
            for value in range(1, 13):
                arm()
                fbox.one_way(Port(value))
                arm()
                fbox.one_way_batch([Port(100 + value), Port(200 + value)])
        assert mid_flush == [(NULL_PORT, NULL_PORT)] * len(mid_flush)
        assert len(fbox._images) <= 4  # it did flush
        out = fbox.transform_egress(Message(dest=Port(1)))
        assert out.reply is NULL_PORT and out.signature is NULL_PORT

    def test_null_is_a_rule_and_the_seed_only_its_fast_path(self):
        fbox = FBox()
        fbox._images = {}
        out = fbox.transform_egress(Message(dest=Port(1)))
        assert out.reply is NULL_PORT and out.signature is NULL_PORT
        assert fbox.one_way(0) is NULL_PORT
        assert NULL_PORT not in fbox._images  # passed through, not stored

    @given(st.integers(min_value=1, max_value=8), st.booleans(),
           st.lists(steps, max_size=40))
    def test_any_interleaving_at_any_bound(self, port_cache_max, bound,
                                           plain_callable, script):
        oneway = (lambda value: default_oneway()(value)) \
            if plain_callable else None
        with port_cache_max(bound):
            fbox = WatchedFBox(oneway)
            for name, *args in script:
                if name == "one_way":
                    assert fbox.one_way(args[0]) == f(args[0])
                elif name == "one_way_batch":
                    assert fbox.one_way_batch(args[0]) == [
                        f(port) for port in args[0]]
                else:
                    out = getattr(fbox, name)(
                        Message(dest=Port(1), reply=args[0],
                                signature=args[1]))
                    assert (out.dest, out.reply, out.signature) == (
                        Port(1), f(args[0]), f(args[1]))
                for table in fbox.tables:
                    assert table[NULL_PORT] is NULL_PORT
                    assert all(image == f(port)
                               for port, image in table.items())

    @pytest.mark.integration
    def test_two_threads_on_one_socket_node_never_send_f_of_null(
            self, port_cache_max):
        """Each node serves (replies leave on its pump thread) and is the
        other's client (requests leave on a thread of ours), so two
        threads transform through each F-box while it flushes every few
        frames.  A request's null signature and a reply's two null
        fields must reach the wire null, every time."""
        w = World("udp")
        nodes = [w.node(), w.node()]
        service = PrivatePort(0x5E41CE)
        datagrams = []
        errors = []

        def serve(node):
            def echo(frame):
                request = frame.message
                node.put(request.reply_to(data=request.data.upper()),
                         frame.src)

            sendto = node._sendto

            def recording(raw, dst):
                datagrams.append(raw)
                return sendto(raw, dst)

            node._sendto = recording
            return node.serve(service, echo)

        def client(node, peer, port, seed):
            rng = RandomSource(seed=seed)
            request = Message(command=USER_BASE, data=b"ping")
            try:
                for _ in range(400):
                    reply = trans(node, port, request, rng, timeout=10.0,
                                  dst_machine=peer.address)
                    assert reply.data == b"PING"
                    assert reply.reply == NULL_PORT
                    assert reply.signature == NULL_PORT
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with port_cache_max(4):
                port = [serve(node) for node in nodes][0]
                threads = [
                    threading.Thread(target=client,
                                     args=(nodes[0], nodes[1], port, 1)),
                    threading.Thread(target=client,
                                     args=(nodes[1], nodes[0], port, 2)),
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
            w.close()
        assert not errors
        assert len(datagrams) == 1600
        poisoned = [raw for raw in datagrams if F_OF_NULL.to_bytes() in raw]
        assert not poisoned
