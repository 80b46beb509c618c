"""Tests for the commutative one-way family behind scheme 3."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.commutative import (
    DEFAULT_EXPONENTS,
    DEFAULT_MODULUS,
    CommutativeOneWayFamily,
)
from repro.crypto.randomsrc import RandomSource

indices = st.integers(min_value=0, max_value=len(DEFAULT_EXPONENTS) - 1)


@pytest.fixture(scope="module")
def family():
    return CommutativeOneWayFamily()


@pytest.fixture(scope="module")
def element(family):
    return family.random_element(RandomSource(seed=99))


class TestCommutativity:
    """The property the whole scheme stands on: deletion order must not
    matter ("it does not matter in what order the bits ... were turned
    off")."""

    @given(indices, indices)
    @settings(max_examples=30)
    def test_pairwise_commute(self, i, j):
        family = CommutativeOneWayFamily()
        x = family.random_element(RandomSource(seed=5))
        assert family.apply(i, family.apply(j, x)) == family.apply(
            j, family.apply(i, x)
        )

    def test_all_orderings_of_three(self, family, element):
        results = {
            family.apply(a, family.apply(b, family.apply(c, element)))
            for a, b, c in itertools.permutations((1, 4, 6))
        }
        assert len(results) == 1

    def test_apply_many_equals_sequential(self, family, element):
        sequential = element
        for k in (0, 3, 7):
            sequential = family.apply(k, sequential)
        assert family.apply_many((7, 0, 3), element) == sequential

    def test_apply_many_empty_is_identity(self, family, element):
        assert family.apply_many((), element) == element


class TestOneWayness:
    def test_image_differs_from_preimage(self, family, element):
        for k in range(family.n_functions):
            assert family.apply(k, element) != element

    def test_different_functions_different_images(self, family, element):
        images = {family.apply(k, element) for k in range(family.n_functions)}
        assert len(images) == family.n_functions

    def test_repeated_application_distinct(self, family, element):
        # F_k is a permutation with (almost surely) enormous orbit length.
        seen = set()
        x = element
        for _ in range(30):
            x = family.apply(2, x)
            seen.add(x)
        assert len(seen) == 30


class TestValidation:
    def test_default_modulus_is_large(self):
        assert DEFAULT_MODULUS.bit_length() >= 512

    def test_element_bytes(self, family):
        assert family.element_bytes == 64

    def test_index_bounds(self, family, element):
        with pytest.raises(IndexError):
            family.apply(family.n_functions, element)
        with pytest.raises(IndexError):
            family.apply(-1, element)

    def test_element_bounds(self, family):
        with pytest.raises(ValueError):
            family.apply(0, family.modulus)

    def test_duplicate_exponents_rejected(self):
        with pytest.raises(ValueError):
            CommutativeOneWayFamily(exponents=(3, 3, 5))

    def test_tiny_modulus_rejected(self):
        with pytest.raises(ValueError):
            CommutativeOneWayFamily(modulus=12345)

    def test_unit_exponent_rejected(self):
        with pytest.raises(ValueError):
            CommutativeOneWayFamily(exponents=(1, 3))

    def test_random_element_in_group(self, family):
        rng = RandomSource(seed=10)
        for _ in range(20):
            x = family.random_element(rng)
            assert 2 <= x <= family.modulus - 2
