"""Tests for the seeded/os-entropy random source."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.randomsrc import RandomSource


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = RandomSource(seed=123)
        b = RandomSource(seed=123)
        assert a.bytes(64) == b.bytes(64)
        assert a.bits(48) == b.bits(48)

    def test_different_seeds_differ(self):
        assert RandomSource(seed=1).bytes(32) != RandomSource(seed=2).bytes(32)

    def test_seed_types(self):
        for seed in (b"bytes", "string", 42, -42):
            assert len(RandomSource(seed=seed).bytes(16)) == 16

    def test_bad_seed_type(self):
        with pytest.raises(TypeError):
            RandomSource(seed=3.14)


class TestBits:
    def test_width_respected(self):
        rng = RandomSource(seed=9)
        for width in (1, 7, 8, 24, 48, 128):
            for _ in range(20):
                assert 0 <= rng.bits(width) < (1 << width)

    def test_zero_bits(self):
        assert RandomSource(seed=1).bits(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(seed=1).bits(-1)
        with pytest.raises(ValueError):
            RandomSource(seed=1).bytes(-1)

    def test_48_bit_values_fill_the_space(self):
        # Sparse capabilities need the whole 48-bit space in play: over a
        # few hundred draws we must see values in both halves.
        rng = RandomSource(seed=77)
        draws = [rng.bits(48) for _ in range(300)]
        midpoint = 1 << 47
        assert any(d < midpoint for d in draws)
        assert any(d >= midpoint for d in draws)
        assert len(set(draws)) == len(draws)  # no collisions in 300 draws


class TestRandint:
    @given(st.integers(-100, 100), st.integers(0, 200))
    def test_in_range(self, lo, span):
        hi = lo + span
        rng = RandomSource(seed=5)
        for _ in range(10):
            assert lo <= rng.randint(lo, hi) <= hi

    def test_degenerate_range(self):
        assert RandomSource(seed=1).randint(7, 7) == 7

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(seed=1).randint(3, 2)

    def test_covers_small_range(self):
        rng = RandomSource(seed=13)
        seen = {rng.randint(0, 3) for _ in range(200)}
        assert seen == {0, 1, 2, 3}
