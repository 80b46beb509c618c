"""Tests for the standard message format and its wire codec."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.capability import Capability
from repro.core.ports import NULL_PORT, Port
from repro.core.rights import Rights
from repro.crypto.randomsrc import RandomSource
from repro.errors import BadRequest
from repro.ipc.rpc import trans
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE
from repro.net.message import HEADER_BYTES, Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic

ports = st.integers(min_value=0, max_value=(1 << 48) - 1).map(Port)
caps = st.builds(
    Capability,
    port=ports,
    object=st.integers(min_value=0, max_value=(1 << 24) - 1),
    rights=st.integers(min_value=0, max_value=0xFF).map(Rights),
    check=st.binary(min_size=6, max_size=6),
)

messages = st.builds(
    Message,
    dest=ports,
    reply=ports,
    signature=ports,
    command=st.integers(min_value=0, max_value=0xFFFF),
    status=st.integers(min_value=0, max_value=0xFFFF),
    offset=st.integers(min_value=0, max_value=(1 << 64) - 1),
    size=st.integers(min_value=0, max_value=(1 << 32) - 1),
    capability=st.none() | caps,
    data=st.binary(max_size=200),
    is_reply=st.booleans(),
    extra_caps=st.lists(caps, max_size=3).map(tuple),
)

CAP = Capability(port=Port(7), object=1, rights=Rights(0xFF), check=b"c" * 6)
OUT_OF_RANGE = [
    ("status", -1), ("status", 1 << 16),
    ("offset", -1), ("offset", 1 << 64),
    ("size", -1), ("size", 1 << 32),
]


class TestRoundtrip:
    @given(messages)
    @settings(max_examples=80)
    def test_pack_unpack_identity(self, message):
        assert Message.unpack(message.pack()) == message

    def test_empty_message(self):
        message = Message()
        assert Message.unpack(message.pack()) == message

    def test_extended_capability_in_header(self):
        cap = Capability(
            port=Port(5), object=1, rights=Rights(0xFF), check=b"\xab" * 64
        )
        message = Message(capability=cap)
        assert Message.unpack(message.pack()).capability == cap

    def test_sealed_caps_roundtrip(self):
        message = Message(sealed_caps=b"\x01\x02opaque-encrypted-blob")
        back = Message.unpack(message.pack())
        assert back.sealed_caps == message.sealed_caps
        assert back.capability is None

    def test_sealed_and_plaintext_mutually_exclusive(self):
        cap = Capability(
            port=Port(5), object=1, rights=Rights(0xFF), check=b"\x00" * 6
        )
        with pytest.raises(ValueError):
            Message(capability=cap, sealed_caps=b"blob").pack()


class TestValidation:
    def test_field_bounds(self):
        with pytest.raises(ValueError):
            Message(command=1 << 16)
        with pytest.raises(ValueError):
            Message(status=-1)
        with pytest.raises(ValueError):
            Message(offset=1 << 64)
        with pytest.raises(ValueError):
            Message(size=1 << 32)

    def test_string_data_coerced(self):
        assert Message(data="text").data == b"text"


class TestUnpackRejectsGarbage:
    def test_truncated_header(self):
        with pytest.raises(BadRequest):
            Message.unpack(b"\x00" * (HEADER_BYTES - 1))

    def test_bad_magic(self):
        raw = bytearray(Message().pack())
        raw[0] = ord("X")
        with pytest.raises(BadRequest):
            Message.unpack(bytes(raw))

    def test_bad_version(self):
        raw = bytearray(Message().pack())
        raw[2] = 99
        with pytest.raises(BadRequest):
            Message.unpack(bytes(raw))

    def test_length_mismatch(self):
        raw = Message(data=b"hello").pack()
        with pytest.raises(BadRequest):
            Message.unpack(raw[:-2])
        with pytest.raises(BadRequest):
            Message.unpack(raw + b"!")

    def test_truncated_extra_caps(self):
        cap = Capability(
            port=Port(5), object=1, rights=Rights(0xFF), check=b"\x00" * 6
        )
        raw = bytearray(Message(extra_caps=(cap,)).pack())
        # Claim two extra caps but provide one.
        count_index = HEADER_BYTES  # no header capability present
        raw[count_index] = 2
        with pytest.raises(BadRequest):
            Message.unpack(bytes(raw))


class TestReplyTo:
    def test_reply_addresses_the_reply_port(self):
        request = Message(
            dest=Port(111), reply=Port(222), command=7, data=b"req"
        )
        reply = request.reply_to(data=b"answer")
        assert reply.dest == Port(222)
        assert reply.is_reply
        assert reply.command == 7
        assert reply.data == b"answer"
        assert reply.reply == NULL_PORT

    def test_reply_overrides(self):
        request = Message(reply=Port(9), command=3)
        reply = request.reply_to(status=42)
        assert reply.status == 42

    def test_reply_fields_are_the_dataclass_fields_in_order(self):
        # reply_to writes the reply's __dict__ down as one literal; this
        # is what keeps that literal and the dataclass from drifting.
        request = Message(dest=Port(1), reply=Port(9), command=3)
        names = [f.name for f in dataclasses.fields(Message)]
        assert list(request.reply_to().__dict__) == names
        assert list(request.__dict__) == names
        everything = request.reply_to(
            "text", 1, CAP, 2, 3, (CAP,), Port(4), b"")
        assert everything == Message(
            dest=Port(9), signature=Port(4), command=3, status=1, offset=2,
            size=3, capability=CAP, data=b"text", is_reply=True,
            extra_caps=(CAP,))
        assert request.reply_to() == Message(
            dest=Port(9), command=3, is_reply=True)

    def test_unknown_keyword_is_a_type_error(self):
        request = Message(reply=Port(9))
        for stray in ("statuss", "dest", "command", "is_reply"):
            with pytest.raises(TypeError):
                request.reply_to(**{stray: 1})

    @pytest.mark.parametrize("field, value", OUT_OF_RANGE)
    def test_out_of_range_numbers_are_refused(self, field, value):
        request = Message(reply=Port(9), command=3)
        with pytest.raises(ValueError, match=field):
            request.reply_to(**{field: value})

    @pytest.mark.parametrize("field, value", OUT_OF_RANGE)
    def test_the_dispatch_loop_answers_them_with_an_error_reply(
            self, field, value):
        class Buggy(ObjectServer):
            @command(USER_BASE)
            def _bad(self, ctx):
                return ctx.request.reply_to(**{field: value})

        net = SimNetwork()
        server = Buggy(Nic(net), rng=RandomSource(seed=1)).start()
        reply = trans(Nic(net), server.put_port, Message(command=USER_BASE),
                      RandomSource(seed=2))
        assert reply.status != 0 and field.encode() in reply.data


class TestCopy:
    def test_copy_is_independent(self):
        message = Message(data=b"original", command=1)
        changed = message.copy(command=2)
        assert message.command == 1
        assert changed.command == 2
        assert changed.data == b"original"


class TestConstructorParity:
    """The hand-written ``Message.__init__`` keeps the generated
    dataclass constructor's contract: fields, order, checks, messages."""

    FIELDS = ["dest", "reply", "signature", "command", "status", "offset",
              "size", "capability", "data", "is_reply", "extra_caps",
              "sealed_caps"]
    WIDTHS = [("command", 16), ("status", 16), ("offset", 64), ("size", 32)]

    @pytest.mark.parametrize("field, width", WIDTHS)
    @pytest.mark.parametrize("edge", ["below", "above"])
    def test_out_of_range_is_the_same_value_error(self, field, width, edge):
        value = -1 if edge == "below" else 1 << width
        expected = "%s %d outside u%d" % (field, value, width)
        with pytest.raises(ValueError) as raised:
            Message(**{field: value})
        assert str(raised.value) == expected

    @pytest.mark.parametrize("field, width", WIDTHS)
    def test_the_range_ends_are_accepted(self, field, width):
        for value in (0, (1 << width) - 1):
            assert getattr(Message(**{field: value}), field) == value

    def test_str_data_is_encoded(self):
        assert Message(data="café").data == "café".encode("utf-8")
        assert Message(data=b"raw").data == b"raw"

    def test_copy_still_validates(self):
        message = Message(command=1)
        with pytest.raises(ValueError, match="command -1 outside u16"):
            message.copy(command=-1)
        assert message.copy(data="text").data == b"text"

    def test_fields_keep_their_names_and_order(self):
        assert [f.name for f in dataclasses.fields(Message)] == self.FIELDS
        positional = Message(*range(1, 8))
        assert [getattr(positional, name) for name in self.FIELDS[:7]] == (
            list(range(1, 8)))

    def test_defaults_and_equality(self):
        assert Message() == Message()
        assert Message().__dict__ == {
            "dest": NULL_PORT, "reply": NULL_PORT, "signature": NULL_PORT,
            "command": 0, "status": 0, "offset": 0, "size": 0,
            "capability": None, "data": b"", "is_reply": False,
            "extra_caps": (), "sealed_caps": b"",
        }
        assert Message(command=1) != Message(command=2)

    def test_unknown_keyword_is_a_type_error(self):
        with pytest.raises(TypeError):
            Message(statuss=1)
