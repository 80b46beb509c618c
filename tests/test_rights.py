"""Tests for the 8-bit rights mask algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.rights import ALL_RIGHTS, Rights

rights_bits = st.integers(min_value=0, max_value=0xFF)


class TestConstruction:
    def test_default_is_all(self):
        assert int(Rights()) == 0xFF
        assert Rights() == ALL_RIGHTS

    def test_bounds(self):
        with pytest.raises(ValueError):
            Rights(256)
        with pytest.raises(ValueError):
            Rights(-1)

    def test_is_an_int(self):
        assert Rights(0x0F) & 0x03 == 0x03
        assert isinstance(Rights(1), int)


class TestQueries:
    def test_has(self):
        r = Rights(0b00000101)
        assert r.has(0) and r.has(2)
        assert not r.has(1)

    def test_has_bounds(self):
        with pytest.raises(IndexError):
            Rights().has(8)

    def test_set_and_clear_bits_partition(self):
        r = Rights(0b10100101)
        assert r.set_bits() == (0, 2, 5, 7)
        # The deleted rights, whose functions §2.3's server applies.
        assert r.clear_bits() == (1, 3, 4, 6)
        assert Rights(0xFF).clear_bits() == ()
        assert Rights(0).clear_bits() == tuple(range(8))

    @given(rights_bits)
    def test_partition_property(self, bits):
        r = Rights(bits)
        assert sorted(r.set_bits() + r.clear_bits()) == list(range(8))


class TestRestriction:
    @given(rights_bits, rights_bits)
    def test_restrict_is_intersection(self, a, b):
        assert int(Rights(a).restrict(b)) == a & b

    @given(rights_bits, rights_bits)
    def test_restrict_never_grows(self, a, b):
        restricted = Rights(a).restrict(b)
        assert Rights(a) & restricted == restricted

    @given(rights_bits, rights_bits)
    def test_restrict_idempotent(self, a, b):
        once = Rights(a).restrict(b)
        assert once.restrict(b) == once

    @given(rights_bits)
    def test_restrict_by_all_is_identity(self, a):
        assert Rights(a).restrict(ALL_RIGHTS) == Rights(a)

    def test_without(self):
        assert int(Rights(0b1111).without(0b0101)) == 0b1010

    @given(rights_bits, rights_bits)
    def test_without_equals_restrict_complement(self, a, b):
        assert Rights(a).without(b) == Rights(a).restrict(0xFF ^ b)

    def test_results_are_rights_instances(self):
        assert isinstance(Rights(3).restrict(1), Rights)
        assert isinstance(Rights(3).without(1), Rights)


class TestRepr:
    def test_repr_shows_bits(self):
        assert "0b00000101" in repr(Rights(5))
