"""Tests for the Feistel ciphers (scheme 1 and the §2.4 key matrix)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.feistel import (
    CAPABILITY_BLOCK_BITS,
    FeistelCipher,
    WideBlockCipher,
)

blocks56 = st.integers(min_value=0, max_value=(1 << 56) - 1)


class TestFeistelRoundtrip:
    @given(blocks56)
    def test_decrypt_inverts_encrypt(self, block):
        cipher = FeistelCipher(b"key material")
        assert cipher.decrypt(cipher.encrypt(block)) == block

    @given(blocks56)
    def test_encrypt_inverts_decrypt(self, block):
        cipher = FeistelCipher(b"key material")
        assert cipher.encrypt(cipher.decrypt(block)) == block

    def test_128_bit_blocks(self):
        cipher = FeistelCipher(b"k", block_bits=CAPABILITY_BLOCK_BITS)
        block = int.from_bytes(b"a 16 byte block!", "big")
        assert cipher.decrypt(cipher.encrypt(block)) == block

    def test_bytes_interface(self):
        cipher = FeistelCipher(b"k", block_bits=128)
        ct = cipher.encrypt_bytes(b"capability bytes")
        assert len(ct) == 16
        assert cipher.decrypt_bytes(ct) == b"capability bytes"

    def test_bytes_interface_wrong_length(self):
        cipher = FeistelCipher(b"k", block_bits=128)
        with pytest.raises(ValueError):
            cipher.encrypt_bytes(b"short")


class TestFeistelIsACipher:
    def test_different_keys_different_ciphertexts(self):
        a = FeistelCipher(b"key-a").encrypt(0xDEADBEEF)
        b = FeistelCipher(b"key-b").encrypt(0xDEADBEEF)
        assert a != b

    def test_permutation_no_collisions(self):
        cipher = FeistelCipher(b"k")
        outputs = {cipher.encrypt(v) for v in range(500)}
        assert len(outputs) == 500

    def test_avalanche_on_plaintext(self):
        # §2.3: "an encryption function that mixes the bits thoroughly is
        # required ... EXCLUSIVE-OR'ing a constant will not do."  Flipping
        # one plaintext bit must scramble roughly half the ciphertext.
        cipher = FeistelCipher(b"k")
        base = cipher.encrypt(0)
        flipped = cipher.encrypt(1)
        assert bin(base ^ flipped).count("1") >= 12

    def test_avalanche_on_ciphertext_tamper(self):
        # The scheme-1 security argument: tampering with ciphertext bits
        # (the RIGHTS field) scrambles the decrypted known constant.
        cipher = FeistelCipher(b"k")
        ct = cipher.encrypt(0xFF << 48)  # rights=0xFF, constant=0
        tampered_pt = cipher.decrypt(ct ^ (1 << 55))
        assert tampered_pt & ((1 << 48) - 1) != 0

    def test_not_a_plain_xor(self):
        cipher = FeistelCipher(b"k")
        # If E(x) = x ^ c, then E(a) ^ E(b) == a ^ b.  Refute it.
        assert (cipher.encrypt(0x1111) ^ cipher.encrypt(0x2222)) != (0x1111 ^ 0x2222)


class TestFeistelValidation:
    def test_rejects_empty_key(self):
        with pytest.raises(ValueError):
            FeistelCipher(b"")

    def test_rejects_odd_block(self):
        with pytest.raises(ValueError):
            FeistelCipher(b"k", block_bits=57)

    def test_rejects_few_rounds(self):
        with pytest.raises(ValueError):
            FeistelCipher(b"k", rounds=2)

    def test_rejects_out_of_range_block(self):
        cipher = FeistelCipher(b"k", block_bits=56)
        with pytest.raises(ValueError):
            cipher.encrypt(1 << 56)
        with pytest.raises(ValueError):
            cipher.decrypt(-1)

    def test_string_key_accepted(self):
        assert FeistelCipher("text key").encrypt(5) == FeistelCipher(
            b"text key"
        ).encrypt(5)


class TestWideBlockCipher:
    @given(st.binary(min_size=2, max_size=200))
    @settings(max_examples=60)
    def test_roundtrip_any_length(self, data):
        cipher = WideBlockCipher(b"matrix key")
        ct = cipher.encrypt(data)
        assert len(ct) == len(data)
        assert cipher.decrypt(ct) == data

    def test_odd_length_roundtrip(self):
        cipher = WideBlockCipher(b"k")
        data = b"odd-length capability blob!"  # 27 bytes
        assert cipher.decrypt(cipher.encrypt(data)) == data

    def test_wrong_key_garbles(self):
        ct = WideBlockCipher(b"right key").encrypt(b"a capability here...")
        wrong = WideBlockCipher(b"wrong key").decrypt(ct)
        assert wrong != b"a capability here..."

    def test_single_byte_flip_scrambles_everything(self):
        # The matrix scheme's "decrypts to make sense" check needs
        # non-local damage: one flipped ciphertext byte must not leave
        # the rest of the plaintext intact.
        cipher = WideBlockCipher(b"k")
        data = bytes(range(60))
        ct = bytearray(cipher.encrypt(data))
        ct[0] ^= 0x01
        damaged = cipher.decrypt(bytes(ct))
        matching = sum(1 for a, b in zip(damaged, data) if a == b)
        assert matching < len(data) // 2

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            WideBlockCipher(b"k").encrypt(b"x")

    def test_rounds_validation(self):
        with pytest.raises(ValueError):
            WideBlockCipher(b"k", rounds=3)
        with pytest.raises(ValueError):
            WideBlockCipher(b"k", rounds=5)


class TestCipherCache:
    def test_feistel_for_key_shares_instances(self):
        from repro.crypto.feistel import feistel_for_key

        a = feistel_for_key(b"k", block_bits=128)
        b = feistel_for_key(b"k", block_bits=128)
        assert a is b
        assert feistel_for_key(b"k2", block_bits=128) is not a
        # Different geometry under the same key is a different cipher.
        assert feistel_for_key(b"k", block_bits=56) is not a

    def test_wide_cipher_for_key_shares_instances(self):
        from repro.crypto.feistel import wide_cipher_for_key

        a = wide_cipher_for_key(b"line-key")
        assert wide_cipher_for_key(b"line-key") is a
        assert wide_cipher_for_key("line-key") is a  # str keys normalize

    def test_cached_cipher_output_unchanged(self):
        # The precomputed round states are a key schedule, not a format
        # change: a fresh instance and a cached one must agree bit for bit.
        from repro.crypto.feistel import wide_cipher_for_key

        data = bytes(range(77))
        fresh = WideBlockCipher(b"parity-key")
        cached = wide_cipher_for_key(b"parity-key")
        assert fresh.encrypt(data) == cached.encrypt(data)
        assert cached.decrypt(cached.encrypt(data)) == data
