"""Tests for the Fig. 2 capability layout and its wire encodings."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.capability import CAPABILITY_BYTES, Capability
from repro.core.ports import Port
from repro.core.rights import Rights
from repro.errors import MalformedCapability, Verdict

ports = st.integers(min_value=0, max_value=(1 << 48) - 1).map(Port)
objects = st.integers(min_value=0, max_value=(1 << 24) - 1)
rights = st.integers(min_value=0, max_value=0xFF).map(Rights)
canonical_checks = st.binary(min_size=6, max_size=6)
extended_checks = st.binary(min_size=8, max_size=80)


def make_cap(port=Port(0x123456789ABC), obj=42, r=0xFF, check=b"\x01" * 6):
    return Capability(port=port, object=obj, rights=Rights(r), check=check)


class TestLayout:
    def test_canonical_is_exactly_128_bits(self):
        # Fig. 2: 48 + 24 + 8 + 48 bits.
        assert len(make_cap().pack()) == 16
        assert CAPABILITY_BYTES == 16

    @given(ports, objects, rights, canonical_checks)
    def test_canonical_roundtrip(self, port, obj, r, check):
        cap = Capability(port=port, object=obj, rights=r, check=check)
        assert len(cap.pack()) == 16
        assert Capability.unpack(cap.pack()) == cap

    @given(ports, objects, rights, extended_checks)
    def test_extended_roundtrip(self, port, obj, r, check):
        cap = Capability(port=port, object=obj, rights=r, check=check)
        assert len(cap.pack()) > 16
        assert Capability.unpack(cap.pack()) == cap

    def test_field_positions(self):
        cap = make_cap(port=Port(0xAABBCCDDEEFF), obj=0x112233, r=0x5A,
                       check=b"\x99" * 6)
        raw = cap.pack()
        assert raw[0:6] == bytes.fromhex("aabbccddeeff")
        assert raw[6:9] == bytes.fromhex("112233")
        assert raw[9] == 0x5A
        assert raw[10:16] == b"\x99" * 6


class TestValidation:
    def test_object_bounds(self):
        with pytest.raises(ValueError):
            make_cap(obj=1 << 24)
        with pytest.raises(ValueError):
            make_cap(obj=-1)

    def test_check_length_rules(self):
        # 7-byte checks are neither canonical nor valid extended.
        with pytest.raises(ValueError):
            make_cap(check=b"\x00" * 7)
        make_cap(check=b"\x00" * 8)  # minimal extended: fine

    def test_rights_coerced(self):
        cap = Capability(port=Port(1), object=1, rights=3, check=b"\x00" * 6)
        assert isinstance(cap.rights, Rights)


class TestUnpackRejectsGarbage:
    def test_too_short(self):
        with pytest.raises(MalformedCapability):
            Capability.unpack(b"\x00" * 5)

    def test_truncated_extended(self):
        cap = make_cap(check=b"\xaa" * 16)
        raw = cap.pack()
        with pytest.raises(MalformedCapability):
            Capability.unpack(raw[:-1])

    def test_extended_with_trailing_junk(self):
        raw = make_cap(check=b"\xaa" * 16).pack()
        with pytest.raises(MalformedCapability):
            Capability.unpack(raw + b"\x00")

    def test_declared_check_below_minimum(self):
        # Craft an extended header claiming a 5-byte check (17 bytes in
        # total, so it cannot be mistaken for the canonical 16).
        raw = Port(1).to_bytes() + (5).to_bytes(3, "big") + b"\xff"
        raw += (5).to_bytes(2, "big") + b"\x00" * 5
        with pytest.raises(MalformedCapability):
            Capability.unpack(raw)

    @given(st.one_of(
        st.binary(max_size=40),
        # extended-shaped: a 10-byte head, a declared check length near
        # the true one, then the check bytes
        st.tuples(st.binary(min_size=10, max_size=10),
                  st.binary(max_size=24), st.integers(-2, 2)).map(
            lambda t: t[0] + max(0, len(t[1]) + t[2]).to_bytes(2, "big")
            + t[1])))
    def test_any_bytes_parse_or_are_refused_malformed(self, raw):
        """Nothing but MalformedCapability, with the verdict's own text,
        escapes ``unpack``: the sealer's ``except`` relies on it."""
        try:
            cap = Capability.unpack(raw)
        except MalformedCapability as exc:
            assert str(exc) == Verdict.MALFORMED.text
        else:
            assert cap.pack() == raw

    def test_sixteen_bytes_always_parse_as_canonical(self):
        # Any 16-byte string is structurally a canonical capability —
        # garbage is caught semantically by the check field, exactly the
        # §2.4 "decrypts to make sense" argument.
        cap = Capability.unpack(bytes(range(16)))
        assert len(cap.pack()) == 16


class TestSemantics:
    def test_with_check(self):
        cap = make_cap()
        other = cap.with_check(b"\xfe" * 6)
        assert other.check == b"\xfe" * 6

    def test_equality_and_hash(self):
        assert make_cap() == make_cap()
        assert len({make_cap(), make_cap()}) == 1
        assert make_cap(r=1) != make_cap(r=2)
        assert make_cap() != "not a capability"

    def test_repr_truncates_check(self):
        # The repr shows a 4-byte prefix: enough to correlate in logs,
        # not enough to steal (the secret part is 6+ bytes).
        cap = make_cap(check=bytes.fromhex("00112233445566778899aabbccddeeff"))
        assert "00112233" in repr(cap)
        assert "ccddeeff" not in repr(cap)
