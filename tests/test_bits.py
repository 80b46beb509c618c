"""Unit tests for the bit mask and the constant-time comparison."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bits import constant_time_eq, mask


class TestMask:
    def test_small_widths(self):
        assert mask(0) == 0
        assert mask(1) == 1
        assert mask(8) == 0xFF
        assert mask(48) == 0xFFFFFFFFFFFF

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            mask(-1)


class TestConstantTimeEq:
    def test_equal(self):
        assert constant_time_eq(b"secret", b"secret")

    def test_unequal_same_length(self):
        assert not constant_time_eq(b"secret", b"secreT")

    def test_unequal_lengths(self):
        assert not constant_time_eq(b"short", b"longer")

    @given(st.binary(max_size=32), st.binary(max_size=32))
    def test_agrees_with_python_equality(self, a, b):
        assert constant_time_eq(a, b) == (a == b)
