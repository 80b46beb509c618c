"""Tests for the four rights-protection algorithms of §2.3.

The common contract is tested across all four schemes parametrically;
each scheme's distinctive properties get their own test classes.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.capability import Capability
from repro.core.ports import Port
from repro.core.rights import ALL_RIGHTS, Rights
from repro.core.schemes import (
    CommutativeScheme,
    EncryptedRightsScheme,
    SimpleCheckScheme,
    all_scheme_names,
    scheme_by_name,
)
from repro.crypto.randomsrc import RandomSource
from repro.errors import BadRequest

RIGHTS_PROTECTING = ("encrypted", "xor-oneway", "commutative")
ALL_SCHEMES = all_scheme_names()

rights_values = st.integers(min_value=0, max_value=0xFF)


def fresh(scheme_name, seed=1):
    scheme = scheme_by_name(scheme_name)
    secret = scheme.new_secret(RandomSource(seed=seed))
    return scheme, secret


class TestCommonContract:
    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_mint_then_verify(self, name):
        scheme, secret = fresh(name)
        rights_field, check = scheme.mint(secret, ALL_RIGHTS)
        assert scheme.verify(secret, rights_field, check) == ALL_RIGHTS

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_check_field_width_is_declared(self, name):
        scheme, secret = fresh(name)
        _, check = scheme.mint(secret, ALL_RIGHTS)
        assert len(check) == scheme.check_bytes

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_wrong_secret_rejected(self, name):
        scheme, secret = fresh(name, seed=1)
        other_secret = scheme.new_secret(RandomSource(seed=2))
        rights_field, check = scheme.mint(secret, ALL_RIGHTS)
        assert scheme.verify(other_secret, rights_field, check) is None

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_corrupted_check_rejected(self, name):
        scheme, secret = fresh(name)
        rights_field, check = scheme.mint(secret, ALL_RIGHTS)
        corrupted = bytes([check[0] ^ 0x01]) + check[1:]
        assert scheme.verify(secret, rights_field, corrupted) is None

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_wrong_width_check_rejected(self, name):
        scheme, secret = fresh(name)
        rights_field, check = scheme.mint(secret, ALL_RIGHTS)
        assert scheme.verify(secret, rights_field, check + b"\x00") is None

    @pytest.mark.parametrize("name", RIGHTS_PROTECTING)
    def test_restrict_yields_verifiable_subset(self, name):
        scheme, secret = fresh(name)
        rights_field, check = scheme.mint(secret, ALL_RIGHTS)
        effective = scheme.verify(secret, rights_field, check)
        new_rights, new_check = scheme.restrict(
            secret, effective, Rights(0b0011)
        )
        assert scheme.verify(secret, new_rights, new_check) == Rights(0b0011)

    @pytest.mark.parametrize("name", RIGHTS_PROTECTING)
    @given(rights_values)
    @settings(max_examples=20, deadline=None)
    def test_any_rights_value_mintable(self, name, bits):
        scheme, secret = fresh(name)
        rights_field, check = scheme.mint(secret, Rights(bits))
        assert scheme.verify(secret, rights_field, check) == Rights(bits)


class TestRightsTampering:
    """The central claim: "although a user can tamper with the plaintext
    RIGHTS field, such tampering will result in the server ultimately
    rejecting the capability."""

    @pytest.mark.parametrize("name", RIGHTS_PROTECTING)
    @given(st.integers(min_value=1, max_value=0xFF))
    @settings(max_examples=40, deadline=None)
    def test_every_rights_flip_detected(self, name, flip):
        scheme, secret = fresh(name)
        rights_field, check = scheme.mint(secret, Rights(0b00001111))
        tampered = Rights(int(rights_field) ^ flip)
        assert scheme.verify(secret, tampered, check) is None

    @pytest.mark.parametrize("name", RIGHTS_PROTECTING)
    def test_cannot_upgrade_restricted_capability(self, name):
        scheme, secret = fresh(name)
        rights_field, check = scheme.mint(secret, ALL_RIGHTS)
        effective = scheme.verify(secret, rights_field, check)
        weak_rights, weak_check = scheme.restrict(
            secret, effective, Rights(0x01)
        )
        # Claiming all rights with the weak check must fail.
        assert scheme.verify(secret, ALL_RIGHTS, weak_check) is None


class TestSimpleScheme:
    """§2.3 "simplest" system: genuine-or-not, no rights distinction."""

    def test_verify_grants_everything(self):
        scheme, secret = fresh("simple")
        rights_field, check = scheme.mint(secret, Rights(0x01))
        # The scheme cannot represent fewer rights: verification of a
        # genuine capability yields ALL rights regardless.
        assert scheme.verify(secret, rights_field, check) == ALL_RIGHTS

    def test_restriction_refused(self):
        scheme, secret = fresh("simple")
        with pytest.raises(BadRequest):
            scheme.restrict(secret, ALL_RIGHTS, Rights(0x01))

    def test_flags(self):
        scheme = SimpleCheckScheme()
        assert not scheme.supports_restriction
        assert not scheme.client_restrictable


class TestEncryptedScheme:
    """§2.3 first algorithm: E(rights || known constant)."""

    def test_rights_field_is_ciphertext(self):
        scheme, secret = fresh("encrypted")
        rights_field, _ = scheme.mint(secret, Rights(0b10101010))
        # The wire rights field should (almost always) differ from the
        # plaintext rights: it is half of a 56-bit ciphertext.
        minted = [
            scheme.mint(secret, Rights(r))[0] == Rights(r) for r in range(64)
        ]
        assert sum(minted) < 8  # chance matches only

    def test_known_constant_checked(self):
        scheme, secret = fresh("encrypted")
        # A random rights/check pair decrypts to a random constant:
        # 2**-48 acceptance probability.
        assert scheme.verify(secret, Rights(0x5A), b"\xa5" * 6) is None

    def test_per_object_keys_differ(self):
        scheme = EncryptedRightsScheme()
        s1 = scheme.new_secret(RandomSource(seed=1))
        s2 = scheme.new_secret(RandomSource(seed=2))
        f1, c1 = scheme.mint(s1, ALL_RIGHTS)
        assert scheme.verify(s2, f1, c1) is None


class TestXorOneWayScheme:
    """§2.3 second algorithm: check = F(random XOR rights)."""

    def test_rights_field_is_plaintext(self):
        scheme, secret = fresh("xor-oneway")
        rights_field, _ = scheme.mint(secret, Rights(0b1010))
        assert rights_field == Rights(0b1010)

    def test_check_depends_on_rights(self):
        scheme, secret = fresh("xor-oneway")
        _, c1 = scheme.mint(secret, Rights(0b01))
        _, c2 = scheme.mint(secret, Rights(0b10))
        assert c1 != c2

    def test_mint_is_deterministic(self):
        # Same secret + same rights -> identical capability bytes, so
        # handing out "an exact copy of its capability" is just copying.
        scheme, secret = fresh("xor-oneway")
        assert scheme.mint(secret, Rights(7)) == scheme.mint(secret, Rights(7))


class TestCommutativeScheme:
    """§2.3 third algorithm: client-side restriction, order-independence."""

    @pytest.fixture()
    def setup(self):
        scheme = CommutativeScheme()
        secret = scheme.new_secret(RandomSource(seed=3))
        port = Port(0xABCDEF)
        rights_field, check = scheme.mint(secret, ALL_RIGHTS)
        cap = Capability(port=port, object=5, rights=rights_field, check=check)
        return scheme, secret, cap

    def test_client_restrict_verifies(self, setup):
        scheme, secret, cap = setup
        weaker = scheme.client_restrict(cap, Rights(0b00000110))
        assert scheme.verify(secret, weaker.rights, weaker.check) == Rights(0b0110)

    def test_client_restrict_needs_no_secret(self, setup):
        scheme, _, cap = setup
        # The method signature itself proves it, but assert the produced
        # capability differs from the original (one-way applied).
        weaker = scheme.client_restrict(cap, Rights(0x0F))
        assert weaker.check != cap.check
        assert weaker.rights == Rights(0x0F)

    def test_restriction_order_does_not_matter(self, setup):
        scheme, secret, cap = setup
        path_a = scheme.client_restrict(
            scheme.client_restrict(cap, Rights(0xFF).without(0x01)),
            Rights(0xFF).without(0x06),
        )
        path_b = scheme.client_restrict(
            scheme.client_restrict(cap, Rights(0xFF).without(0x06)),
            Rights(0xFF).without(0x01),
        )
        assert path_a.check == path_b.check
        assert path_a.rights == path_b.rights

    def test_cannot_regain_dropped_right(self, setup):
        scheme, secret, cap = setup
        weaker = scheme.client_restrict(cap, Rights(0b11111110))
        forged = replace(weaker, rights=ALL_RIGHTS)
        assert scheme.verify(secret, forged.rights, forged.check) is None

    def test_restrict_to_same_rights_is_identity(self, setup):
        scheme, _, cap = setup
        same = scheme.client_restrict(cap, ALL_RIGHTS)
        assert same.check == cap.check

    def test_recover_rights_bruteforce(self, setup):
        # "In theory at least, the RIGHTS field is not even needed."
        scheme, secret, cap = setup
        weaker = scheme.client_restrict(cap, Rights(0b00010001))
        assert scheme.recover_rights(secret, weaker.check) == Rights(0b00010001)

    def test_recover_rights_rejects_garbage(self, setup):
        scheme, secret, _ = setup
        assert scheme.recover_rights(secret, b"\x01" * scheme.check_bytes) is None

    def test_check_not_a_group_element_rejected(self, setup):
        scheme, secret, cap = setup
        too_big = b"\xff" * scheme.check_bytes
        assert scheme.verify(secret, cap.rights, too_big) is None
        with pytest.raises(ValueError):  # client misuse, not a verdict
            scheme.client_restrict(cap.with_check(too_big), Rights(0x0F))

    def test_extended_capability_roundtrips(self, setup):
        _, _, cap = setup
        assert Capability.unpack(cap.pack()) == cap
        assert len(cap.pack()) > 16


class TestFactory:
    def test_all_names_construct(self):
        for name in ALL_SCHEMES:
            assert scheme_by_name(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            scheme_by_name("rot13")

    def test_presentation_order(self):
        assert ALL_SCHEMES == ("simple", "encrypted", "xor-oneway", "commutative")
