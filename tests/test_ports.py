"""Tests for ports and the get/put relationship P = F(G)."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ports import NULL_PORT, Port, PrivatePort, as_port, draw_ports
from repro.crypto.oneway import default_oneway
from repro.crypto.randomsrc import RandomSource
from repro.net.message import Message

port_values = st.integers(min_value=0, max_value=(1 << 48) - 1)


class TestPort:
    @given(port_values)
    def test_bytes_roundtrip(self, value):
        port = Port(value)
        assert Port.from_bytes(port.to_bytes()) == port

    def test_wire_width(self):
        assert len(Port(0).to_bytes()) == 6

    def test_bounds(self):
        with pytest.raises(ValueError):
            Port(1 << 48)
        with pytest.raises(ValueError):
            Port(-1)

    def test_from_bytes_wrong_length(self):
        with pytest.raises(ValueError):
            Port.from_bytes(b"\x00" * 5)

    def test_null(self):
        assert NULL_PORT == Port(0) == 0
        assert Port(1) != NULL_PORT

    def test_random_ports_distinct(self):
        rng = RandomSource(seed=1)
        ports = {Port.random(rng) for _ in range(100)}
        assert len(ports) == 100

    def test_hashable_and_ordered(self):
        assert Port(1) < Port(2)
        assert len({Port(1), Port(1), Port(2)}) == 2

    def test_to_bytes_default_and_int_signature(self):
        # Port.to_bytes shadows int.to_bytes: the wire form is the
        # default, and the inherited (length, byteorder) call still works.
        port = Port(0xABCDEF)
        assert port.to_bytes() == b"\x00\x00\x00\xab\xcd\xef"
        assert port.to_bytes() == int.to_bytes(port, 6, "big")
        assert port.to_bytes(8, "big") == (0xABCDEF).to_bytes(8, "big")
        assert port.to_bytes(4, "little") == (0xABCDEF).to_bytes(4, "little")
        assert port.to_bytes(length=4, byteorder="big", signed=True) == (
            (0xABCDEF).to_bytes(4, "big", signed=True)
        )

    @given(port_values)
    def test_from_bytes_matches_message_unpack(self, value):
        # The two wire decodes of a port: the exact-length one, and the
        # header's H + I pair inside Message.unpack's one struct call.
        wire = Port(value).to_bytes()
        header = Message.unpack(Message(dest=Port(value)).pack())
        assert Port.from_bytes(wire) == header.dest == Port(value)
        assert type(Port.from_bytes(wire)) is Port and type(header.dest) is Port


class TestPortIsAnInt:
    """A port is the 48-bit integer it denotes (``class Port(int)``)."""

    def test_hash_and_eq_are_ints_own(self):
        # No Python frame per dict probe: the slots are inherited.
        assert Port.__hash__ is int.__hash__
        assert Port.__eq__ is int.__eq__
        assert Port.__lt__ is int.__lt__

    def test_no_instance_state(self):
        port = Port(7)
        assert not hasattr(port, "__dict__")
        with pytest.raises(AttributeError):
            port.cached = b"x"
        with pytest.raises(AttributeError):
            port.value = 8
        assert Port.from_bytes(b"\x00\x00\x00\x00\x01\x02").__class__ is Port
        decoded = Message.unpack(Message(dest=Port(0x102)).pack()).dest
        assert decoded.__class__ is Port and not hasattr(decoded, "__dict__")
        assert not hasattr(Port._unchecked(9), "__dict__")

    def test_value_is_a_plain_int(self):
        assert type(Port(7).value) is int
        assert Port(7).value == 7

    def test_equals_and_indexes_as_its_integer(self):
        assert Port(5) == 5 and 5 == Port(5)
        assert hash(Port(5)) == hash(5)
        assert {Port(5): "x"}[5] == "x"
        assert {5: "x"}[Port(5)] == "x"
        assert Port(5) != Port(6) and Port(5) != 6

    def test_ordering_is_numeric(self):
        ports = [Port(3), Port(1 << 47), Port(0), Port(2)]
        assert sorted(ports) == [Port(0), Port(2), Port(3), Port(1 << 47)]
        assert Port(1) < 2 <= Port(2)

    def test_null_port_is_falsy(self):
        # The trap `x or default` walks into; == NULL_PORT is the spelling.
        assert bool(NULL_PORT) is False
        assert bool(Port(1)) is True
        assert NULL_PORT == Port(0) and Port(1) != NULL_PORT

    def test_unchecked_skips_only_the_range_check(self):
        port = Port._unchecked(0xABC)
        assert type(port) is Port and port == Port(0xABC)
        assert repr(port) == "Port(000000000abc)"

    def test_range_check_is_inclusive_of_the_top_port(self):
        # test_bounds covers the rejections; the constructor still runs
        # them now that construction is int.__new__.
        assert Port((1 << 48) - 1) == (1 << 48) - 1
        with pytest.raises(ValueError):
            Port((1 << 48) + 5)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_keeps_the_type(self, protocol):
        port = Port(0x123456789ABC)
        clone = pickle.loads(pickle.dumps(port, protocol))
        assert type(clone) is Port and clone == port

    def test_copy_keeps_the_type(self):
        port = Port(0x123456789ABC)
        for clone in (copy.copy(port), copy.deepcopy(port), copy.deepcopy([port])[0]):
            assert type(clone) is Port and clone == port

    def test_arithmetic_leaves_the_type(self):
        # Shard selection and wire packing compute on ports; results are
        # plain ints, never out-of-range "ports".
        assert type(Port(5) & 3) is int
        assert type(Port(5) >> 1) is int


class TestPrivatePort:
    def test_public_is_f_of_secret(self):
        private = PrivatePort(12345)
        assert private.public == Port(default_oneway()(12345))

    def test_generate_uses_rng(self):
        a = PrivatePort.generate(RandomSource(seed=5))
        b = PrivatePort.generate(RandomSource(seed=5))
        assert a == b
        assert a.public == b.public

    def test_distinct_secrets_distinct_publics(self):
        rng = RandomSource(seed=6)
        pairs = [PrivatePort.generate(rng) for _ in range(50)]
        assert len({p.public for p in pairs}) == 50

    def test_repr_never_leaks_secret(self):
        # "The get-port is kept secret" — not even in logs.
        private = PrivatePort(0xDEADBEEF0123)
        assert "deadbeef0123" not in repr(private).lower()
        assert "%x" % private.secret not in repr(private).lower()

    def test_bounds(self):
        with pytest.raises(ValueError):
            PrivatePort(1 << 48)


class TestAsPort:
    def test_port_passthrough(self):
        p = Port(7)
        assert as_port(p) is p

    def test_int_coerces(self):
        assert as_port(7) == Port(7)

    def test_private_coerces_to_secret(self):
        # A PrivatePort in a header field must carry the *secret*: the
        # F-box applies F on egress, nothing else may.
        private = PrivatePort(99)
        assert as_port(private) == Port(99)
        assert as_port(private) != private.public

    def test_garbage_rejected(self):
        with pytest.raises(TypeError):
            as_port("not a port")


class TestDrawPorts:
    @pytest.mark.parametrize("n", [0, 1, 5, 16, 40])
    def test_same_ports_in_the_same_order_as_port_random(self, n):
        pooled, twin = RandomSource(seed=9), RandomSource(seed=9)
        drawn = draw_ports(pooled, n)
        assert drawn == [Port.random(twin) for _ in range(n)]
        assert all(type(port) is Port for port in drawn)
        # and both sources stand at the same point of the stream
        assert Port.random(pooled) == Port.random(twin)

    def test_unseeded_source(self):
        drawn = draw_ports(RandomSource(), 16)
        assert len(set(drawn)) == 16
        assert all(type(port) is Port for port in drawn)

    def test_short_read_refused(self):
        class Short:
            def bytes(self, n):
                return b"\x01" * (n - 1)

        with pytest.raises(ValueError, match="short read"):
            draw_ports(Short(), 4)
