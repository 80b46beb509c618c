"""Wire-format parity: the fast codec must be byte-identical to the old one.

The lean ``Message.pack`` (one struct call, one join) and
trusted-constructor ``unpack`` are pure optimizations — the wire format
is frozen.  The
reference implementation below is a verbatim transliteration of the
pre-fast-lane codec (intermediate byte joins, public constructor); these
property tests drive both over the full message space, including the
sealed-caps and extra-caps corners, and require byte-for-byte and
field-for-field agreement.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.capability import Capability
from repro.core.ports import Port
from repro.core.rights import Rights
from repro.errors import BadRequest
from repro.net.message import HEADER_BYTES, Message

_MAGIC = b"AM"
_VERSION = 1
_FLAG_REPLY = 0x01
_FLAG_SEALED = 0x02
_FIXED = struct.Struct(">2sBB6s6s6sHHQIHI")


# ----------------------------------------------------------------------
# reference codec (the pre-optimization implementation, kept verbatim)
# ----------------------------------------------------------------------


def reference_pack(message):
    flags = _FLAG_REPLY if message.is_reply else 0
    if message.sealed_caps:
        if message.capability is not None or message.extra_caps:
            raise ValueError("sealed message with plaintext capabilities")
        flags |= _FLAG_SEALED
        cap_bytes = message.sealed_caps
    else:
        cap_bytes = message.capability.pack() if message.capability else b""
    extra = b"".join(
        len(c := cap.pack()).to_bytes(2, "big") + c for cap in message.extra_caps
    )
    payload = (
        len(message.extra_caps).to_bytes(1, "big") + extra + message.data
        if message.extra_caps
        else b"\x00" + message.data
    )
    head = _FIXED.pack(
        _MAGIC,
        _VERSION,
        flags,
        message.dest.to_bytes(),
        message.reply.to_bytes(),
        message.signature.to_bytes(),
        message.command,
        message.status,
        message.offset,
        message.size,
        len(cap_bytes),
        len(payload),
    )
    return head + cap_bytes + payload


def reference_unpack(raw):
    """The old unpack, returning a Message via the validating constructor."""
    (
        magic,
        version,
        flags,
        dest,
        reply,
        signature,
        command,
        status,
        offset,
        size,
        caplen,
        datalen,
    ) = _FIXED.unpack_from(raw)
    assert magic == _MAGIC and version == _VERSION
    assert len(raw) == HEADER_BYTES + caplen + datalen
    cap_bytes = raw[HEADER_BYTES:HEADER_BYTES + caplen]
    payload = raw[HEADER_BYTES + caplen:]
    sealed_caps = b""
    capability = None
    if flags & _FLAG_SEALED:
        sealed_caps = bytes(cap_bytes)
    elif caplen:
        capability = Capability.unpack(cap_bytes)
    n_extra = payload[0] if payload else 0
    pos = 1
    extra_caps = []
    for _ in range(n_extra):
        clen = int.from_bytes(payload[pos:pos + 2], "big")
        pos += 2
        extra_caps.append(Capability.unpack(payload[pos:pos + clen]))
        pos += clen
    return Message(
        dest=Port.from_bytes(dest),
        reply=Port.from_bytes(reply),
        signature=Port.from_bytes(signature),
        command=command,
        status=status,
        offset=offset,
        size=size,
        capability=capability,
        data=bytes(payload[pos:]),
        is_reply=bool(flags & _FLAG_REPLY),
        extra_caps=tuple(extra_caps),
        sealed_caps=sealed_caps,
    )


# ----------------------------------------------------------------------
# message space
# ----------------------------------------------------------------------

#: The port values where an ``H`` + ``I`` split can go wrong.
EDGE_PORTS = (0, (1 << 32) - 1, 1 << 32, (1 << 48) - 1)
ports = st.one_of(
    st.sampled_from(EDGE_PORTS), st.integers(min_value=0, max_value=(1 << 48) - 1)
).map(Port)

canonical_checks = st.binary(min_size=6, max_size=6)
extended_checks = st.binary(min_size=8, max_size=72)

capabilities = st.builds(
    Capability,
    port=ports,
    object=st.integers(min_value=0, max_value=(1 << 24) - 1),
    rights=st.integers(min_value=0, max_value=0xFF).map(Rights),
    check=st.one_of(canonical_checks, extended_checks),
)

plaintext_messages = st.builds(
    Message,
    dest=ports,
    reply=ports,
    signature=ports,
    command=st.integers(min_value=0, max_value=(1 << 16) - 1),
    status=st.integers(min_value=0, max_value=(1 << 16) - 1),
    offset=st.integers(min_value=0, max_value=(1 << 64) - 1),
    size=st.integers(min_value=0, max_value=(1 << 32) - 1),
    capability=st.one_of(st.none(), capabilities),
    data=st.binary(max_size=200),
    is_reply=st.booleans(),
    extra_caps=st.lists(capabilities, max_size=3).map(tuple),
)

sealed_messages = st.builds(
    Message,
    dest=ports,
    reply=ports,
    signature=ports,
    command=st.integers(min_value=0, max_value=(1 << 16) - 1),
    status=st.integers(min_value=0, max_value=(1 << 16) - 1),
    offset=st.integers(min_value=0, max_value=(1 << 64) - 1),
    size=st.integers(min_value=0, max_value=(1 << 32) - 1),
    data=st.binary(max_size=200),
    is_reply=st.booleans(),
    sealed_caps=st.binary(min_size=1, max_size=120),
)

messages = st.one_of(plaintext_messages, sealed_messages)


# ----------------------------------------------------------------------
# parity properties
# ----------------------------------------------------------------------


class TestPackParity:
    @given(messages)
    @settings(max_examples=400)
    def test_fast_pack_matches_reference(self, message):
        assert message.pack() == reference_pack(message)

    @given(messages)
    @settings(max_examples=200)
    def test_round_trip_preserves_fields(self, message):
        recovered = Message.unpack(message.pack())
        assert recovered == message

    @given(messages)
    @settings(max_examples=200)
    def test_fast_unpack_matches_reference(self, message):
        raw = reference_pack(message)
        assert Message.unpack(raw) == reference_unpack(raw)

    def test_sealed_corner_flag_and_area(self):
        message = Message(dest=Port(1), sealed_caps=b"\xde\xad\xbe\xef")
        raw = message.pack()
        assert raw == reference_pack(message)
        assert raw[3] & _FLAG_SEALED
        assert Message.unpack(raw).sealed_caps == b"\xde\xad\xbe\xef"

    def test_extra_caps_corner_many_and_extended(self):
        caps = tuple(
            Capability(port=Port(i), object=i, rights=Rights(0xFF), check=b"c" * n)
            for i, n in ((1, 6), (2, 8), (3, 64))
        )
        message = Message(dest=Port(9), capability=caps[0], extra_caps=caps)
        raw = message.pack()
        assert raw == reference_pack(message)
        assert Message.unpack(raw).extra_caps == caps

    def test_empty_message_header_only(self):
        message = Message()
        raw = message.pack()
        assert raw == reference_pack(message)
        assert len(raw) == HEADER_BYTES + 1  # just the zero extra-cap count

    def test_sealed_plus_plaintext_still_rejected(self):
        cap = Capability(port=Port(1), object=1, rights=Rights(1), check=b"x" * 6)
        message = Message(dest=Port(1), capability=cap)
        message.sealed_caps = b"blob"
        try:
            message.pack()
        except ValueError:
            pass
        else:
            raise AssertionError("sealed+plaintext message must not pack")


# ----------------------------------------------------------------------
# unpack parity: one eager pass, a plain Message out
# ----------------------------------------------------------------------

_ALL_FIELDS = (
    "dest", "reply", "signature", "command", "status", "offset", "size",
    "capability", "data", "is_reply", "extra_caps", "sealed_caps",
)


class TestLazyUnpackParity:
    """(The name predates PR 18: unpack was lazy about the body then.)"""

    @given(messages, st.permutations(_ALL_FIELDS))
    @settings(max_examples=300)
    def test_any_access_order_matches_reference(self, message, order):
        """Field-by-field equality against the frozen reference codec,
        read in an arbitrary order."""
        raw = reference_pack(message)
        decoded = Message.unpack(raw)
        expected = reference_unpack(raw)
        for name in order:
            assert getattr(decoded, name) == getattr(expected, name), name

    @given(messages)
    @settings(max_examples=200)
    def test_unpack_returns_a_plain_message(self, message):
        """No subclass, nothing deferred: the decoded message is exactly
        a ``Message``, a slotted record with no instance dict, and every
        field already sits in its slot."""
        decoded = Message.unpack(reference_pack(message))
        assert type(decoded) is Message
        assert Message.__slots__ == _ALL_FIELDS
        assert not hasattr(decoded, "__dict__")
        for name in _ALL_FIELDS:
            getattr(decoded, name)  # an unset slot raises AttributeError
        assert type(decoded.data) is bytes

    @given(messages)
    @settings(max_examples=200)
    def test_pack_without_touching_matches_frame(self, message):
        """Repacking an untouched decoded message reproduces the frame."""
        raw = reference_pack(message)
        assert Message.unpack(raw).pack() == raw

    def test_framing_errors_are_eager(self):
        """Every error a frame can produce raises from unpack itself
        (servers route/reply from the header before touching the body)."""
        from repro.errors import MalformedCapability

        cap = Capability(port=Port(1), object=1, rights=Rights(1), check=b"c" * 6)
        raw = bytearray(Message(dest=Port(1), capability=cap).pack())
        # caplen 16 -> 17 turns the header capability into a bogus
        # extended layout; the total length is kept consistent, so only
        # the capability framing is wrong — and it must raise at unpack
        # time, not at first .capability access.
        caplen_offset = HEADER_BYTES - 6  # caplen field in the header
        raw[caplen_offset + 1] = 17
        raw.append(0)
        with pytest.raises(MalformedCapability):
            Message.unpack(bytes(raw))

    def test_mutation_after_unpack_reflected_in_pack(self):
        """A decoded message is an ordinary mutable Message: writes land
        in the instance and the next pack serialises them."""
        decoded = Message.unpack(Message(dest=Port(5), data=b"old").pack())
        decoded.data = b"new"
        assert Message.unpack(decoded.pack()).data == b"new"

    def test_evolve_on_lazy_message(self):
        """_evolve on a decoded message takes header and body changes
        alike, and leaves the source untouched."""
        source = Message(dest=Port(5), reply=Port(6), data=b"payload")
        decoded = Message.unpack(source.pack())
        clone = decoded._evolve(dest=Port(9))
        assert clone.dest == Port(9) and clone.data == b"payload"
        clone2 = decoded._evolve(data=b"swapped")
        assert clone2.data == b"swapped"
        assert clone2.dest == source.dest
        assert decoded == source


# ----------------------------------------------------------------------
# differential: the header field by field, at the module docstring's
# offsets, with no struct call at all
# ----------------------------------------------------------------------

#: (field, offset, width) after magic (0-1), version (2) and flags (3).
_OFFSETS = (
    ("dest", 4, 6), ("reply", 10, 6), ("signature", 16, 6),
    ("command", 22, 2), ("status", 24, 2), ("offset", 26, 8),
    ("size", 34, 4), ("caplen", 38, 2), ("datalen", 40, 4),
)


def naive_header(message):
    """The 44 header bytes, written one field at a time."""
    if message.sealed_caps:
        caplen = len(message.sealed_caps)
    else:
        caplen = len(message.capability.pack()) if message.capability else 0
    datalen = 1 + len(message.data) + sum(
        2 + len(cap.pack()) for cap in message.extra_caps)
    values = {name: getattr(message, name) for name, _, _ in _OFFSETS[:7]}
    values.update(caplen=caplen, datalen=datalen)
    head = bytearray(HEADER_BYTES)
    head[0:3] = b"AM\x01"
    head[3] = ((_FLAG_REPLY if message.is_reply else 0)
               | (_FLAG_SEALED if message.sealed_caps else 0))
    for name, at, width in _OFFSETS:
        head[at:at + width] = int(values[name]).to_bytes(width, "big")
    return bytes(head)


def naive_fields(raw):
    """Each header field read back as ``int.from_bytes(raw[a:b], "big")``."""
    return {name: int.from_bytes(raw[at:at + width], "big")
            for name, at, width in _OFFSETS}


class TestHeaderAgainstNaiveOffsets:
    def test_the_offsets_tile_the_header(self):
        assert _OFFSETS[-1][1] + _OFFSETS[-1][2] == HEADER_BYTES == 44

    @given(messages)
    @settings(max_examples=400)
    def test_pack_writes_the_naive_header(self, message):
        raw = message.pack()
        assert raw[:HEADER_BYTES] == naive_header(message)
        assert raw == reference_pack(message)

    @given(messages)
    @settings(max_examples=400)
    def test_unpack_reads_the_naive_fields(self, message):
        raw = naive_header(message) + reference_pack(message)[HEADER_BYTES:]
        decoded = Message.unpack(raw)
        fields = naive_fields(raw)
        for name in ("dest", "reply", "signature"):
            port = getattr(decoded, name)
            assert type(port) is Port, name
            assert port == fields[name] == getattr(message, name), name
        for name in ("command", "status", "offset", "size"):
            assert getattr(decoded, name) == fields[name], name
        assert decoded.is_reply is message.is_reply
        assert decoded == message

    @given(messages, st.integers(min_value=0, max_value=HEADER_BYTES - 1))
    @settings(max_examples=200)
    def test_a_short_frame_is_a_bad_request(self, message, keep):
        with pytest.raises(BadRequest):  # never struct.error
            Message.unpack(message.pack()[:keep])
