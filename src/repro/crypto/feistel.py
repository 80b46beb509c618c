"""A pure-Python Feistel block cipher standing in for DES.

Two of the paper's constructions need a conventional block cipher:

* rights-protection scheme 1 (§2.3) encrypts the concatenated RIGHTS and
  CHECK fields — a 56-bit block — under a per-object key, and demands "an
  encryption function that mixes the bits thoroughly" (a plain XOR "will
  not do");
* the software-protection key matrix (§2.4) encrypts whole 128-bit
  capabilities under per-(source, destination) conventional keys.

No crypto packages are available offline, so we build a balanced Feistel
network whose round function is truncated SHA-256.  A Feistel network is a
permutation for any round function, so decryption is exact; with a strong
round function and 16+ rounds it behaves as a pseudo-random permutation,
which is all the schemes require (the tests verify avalanche behaviour).
"""

import hashlib

from repro.util.bits import mask

#: RIGHTS (8 bits) + CHECK (48 bits) form the scheme-1 plaintext block.
RIGHTS_CHECK_BLOCK_BITS = 56

#: A whole Fig. 2 capability is one 128-bit block for the key matrix.
CAPABILITY_BLOCK_BITS = 128


class FeistelCipher:
    """Balanced Feistel permutation over a ``block_bits``-wide integer block.

    Parameters
    ----------
    key:
        Arbitrary-length key bytes.
    block_bits:
        Even block width in bits; the default matches the scheme-1
        RIGHTS+CHECK block.
    rounds:
        Number of Feistel rounds; 16 mirrors DES and is ample for a
        SHA-256 round function.
    """

    def __init__(self, key, block_bits=RIGHTS_CHECK_BLOCK_BITS, rounds=16):
        if isinstance(key, str):
            key = key.encode("utf-8")
        if not key:
            raise ValueError("key must be non-empty")
        if block_bits < 8 or block_bits % 2:
            raise ValueError(
                "block_bits must be an even width >= 8, got %d" % block_bits
            )
        if rounds < 4:
            raise ValueError("fewer than 4 Feistel rounds is not a cipher")
        self.block_bits = block_bits
        self.rounds = rounds
        self._half_bits = block_bits // 2
        self._half_mask = mask(self._half_bits)
        self._half_bytes = (self._half_bits + 7) // 8
        self._block_mask = mask(block_bits)
        # Precompute per-round key material so the hot path hashes once
        # per round over a fixed-size input.
        self._round_keys = [
            hashlib.sha256(key + b"/round/" + bytes([r])).digest()
            for r in range(rounds)
        ]

    def _round(self, r, half):
        digest = hashlib.sha256(
            self._round_keys[r] + half.to_bytes(self._half_bytes, "big")
        ).digest()
        return int.from_bytes(digest[: self._half_bytes], "big") & self._half_mask

    def encrypt(self, plaintext):
        """Encrypt one integer block."""
        if plaintext < 0 or plaintext > self._block_mask:
            raise ValueError(
                "plaintext %#x outside %d-bit block" % (plaintext, self.block_bits)
            )
        left = plaintext >> self._half_bits
        right = plaintext & self._half_mask
        for r in range(self.rounds):
            left, right = right, left ^ self._round(r, right)
        # The final swapless form: recombine as (right, left) so that
        # decryption is the same network with reversed round keys.
        return (right << self._half_bits) | left

    def decrypt(self, ciphertext):
        """Invert :meth:`encrypt` on one integer block."""
        if ciphertext < 0 or ciphertext > self._block_mask:
            raise ValueError(
                "ciphertext %#x outside %d-bit block" % (ciphertext, self.block_bits)
            )
        right = ciphertext >> self._half_bits
        left = ciphertext & self._half_mask
        for r in reversed(range(self.rounds)):
            left, right = right ^ self._round(r, left), left
        return (left << self._half_bits) | right

    def encrypt_bytes(self, data):
        """Encrypt a byte string exactly one block long."""
        return self._crypt_bytes(data, self.encrypt)

    def decrypt_bytes(self, data):
        """Decrypt a byte string exactly one block long."""
        return self._crypt_bytes(data, self.decrypt)

    def _crypt_bytes(self, data, op):
        block_bytes = self.block_bits // 8
        if self.block_bits % 8:
            raise ValueError(
                "byte interface needs a byte-aligned block, have %d bits"
                % self.block_bits
            )
        if len(data) != block_bytes:
            raise ValueError(
                "expected %d-byte block, got %d bytes" % (block_bytes, len(data))
            )
        value = int.from_bytes(data, "big")
        return op(value).to_bytes(block_bytes, "big")


class WideBlockCipher:
    """A length-preserving permutation over byte strings of any length >= 2.

    The key matrix of §2.4 must encrypt whole capabilities; canonical
    capabilities are one 128-bit Feistel block, but the commutative
    scheme's extended capabilities are ~76 bytes.  This cipher is a
    balanced byte-wise Feistel over the full string (round function:
    SHA-256 in counter mode), so any single flipped ciphertext byte
    scrambles the whole plaintext — the "decrypts to make sense" test the
    matrix scheme relies on stays sound for long capabilities.
    """

    def __init__(self, key, rounds=4):
        if isinstance(key, str):
            key = key.encode("utf-8")
        if not key:
            raise ValueError("key must be non-empty")
        if rounds < 4:
            raise ValueError("Luby–Rackoff needs at least 4 rounds")
        if rounds % 2:
            raise ValueError(
                "rounds must be even so odd-length blocks invert cleanly"
            )
        self._key = key
        self.rounds = rounds
        # The key schedule: one partially-hashed SHA-256 state per round,
        # absorbed with key + domain tag + round number once at
        # construction.  Each round stream then only copies the state and
        # absorbs the data half — identical digests to hashing the full
        # concatenation, without re-hashing the key material per frame.
        self._round_states = [
            hashlib.sha256(key + b"/wide/" + bytes([r])) for r in range(rounds)
        ]

    def _round_stream(self, r, data, length):
        """Keystream of ``length`` bytes: SHA-256(key, round, data, counter)."""
        state = self._round_states[r].copy()
        state.update(data)
        seed = state.digest()
        out = bytearray()
        counter = 0
        while len(out) < length:
            out.extend(
                hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
            )
            counter += 1
        return bytes(out[:length])

    @staticmethod
    def _xor(a, b):
        # a and b are always the same length here (the stream is cut to
        # len(a)); whole-integer XOR beats a per-byte generator ~10x on
        # message-sized halves.
        return (
            int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
        ).to_bytes(len(a), "big")

    def encrypt(self, plaintext):
        """Encrypt a byte string; the result has the same length.

        One round: ``(L, R) -> (R, L xor F_r(R))``.  With an even round
        count the halves return to their original lengths, so odd-length
        blocks work too.
        """
        if len(plaintext) < 2:
            raise ValueError("wide block must be at least 2 bytes")
        half = len(plaintext) // 2
        left, right = plaintext[:half], plaintext[half:]
        for r in range(self.rounds):
            left, right = right, self._xor(
                left, self._round_stream(r, right, len(left))
            )
        return left + right

    def decrypt(self, ciphertext):
        """Invert :meth:`encrypt`: ``(L, R) -> (R xor F_r(L), L)``."""
        if len(ciphertext) < 2:
            raise ValueError("wide block must be at least 2 bytes")
        half = len(ciphertext) // 2
        left, right = ciphertext[:half], ciphertext[half:]
        for r in reversed(range(self.rounds)):
            left, right = (
                self._xor(right, self._round_stream(r, left, len(right))),
                left,
            )
        return left + right


# ----------------------------------------------------------------------
# per-key cipher cache
# ----------------------------------------------------------------------

#: Cached cipher instances; dropped wholesale when full, like the one-way
#: memo — link and matrix key populations are small (one per line or per
#: machine pair), so the bound exists only to survive hostile key churn.
_CIPHER_CACHE_MAX = 1024

_feistel_cache = {}
_wide_cache = {}


def feistel_for_key(key, block_bits=RIGHTS_CHECK_BLOCK_BITS, rounds=16):
    """A shared :class:`FeistelCipher` for ``key``, key schedule built once.

    Constructing a ``FeistelCipher`` hashes ``rounds`` round keys; on the
    per-frame paths (capability sealing, scheme 1) that schedule was being
    rebuilt for every encrypt *and* decrypt.  Ciphers are stateless after
    construction, so one instance per (key, geometry) is safe to share —
    including across threads.
    """
    if isinstance(key, str):
        key = key.encode("utf-8")
    cache_key = (key, block_bits, rounds)
    cipher = _feistel_cache.get(cache_key)
    if cipher is None:
        if len(_feistel_cache) >= _CIPHER_CACHE_MAX:
            _feistel_cache.clear()
        cipher = FeistelCipher(key, block_bits=block_bits, rounds=rounds)
        _feistel_cache[cache_key] = cipher
    return cipher


def wide_cipher_for_key(key, rounds=4):
    """A shared :class:`WideBlockCipher` for ``key`` (see
    :func:`feistel_for_key`); used by the link-encryption and sealing
    paths so per-round key states are absorbed once per key, not per
    frame."""
    if isinstance(key, str):
        key = key.encode("utf-8")
    cache_key = (key, rounds)
    cipher = _wide_cache.get(cache_key)
    if cipher is None:
        if len(_wide_cache) >= _CIPHER_CACHE_MAX:
            _wide_cache.clear()
        cipher = WideBlockCipher(key, rounds=rounds)
        _wide_cache[cache_key] = cipher
    return cipher
