"""Tests for the F-box transformation (Fig. 1)."""

from repro.core.ports import NULL_PORT, Port, PrivatePort
from repro.crypto.oneway import default_oneway
from repro.net.fbox import FBox
from repro.net.message import Message


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
