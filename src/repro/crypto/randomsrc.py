"""Random number source for sparse capabilities.

Sparse capabilities are protected *only* by the unguessability of their
random fields ("Knowledge of a port is taken by the system as prima facie
evidence..."), so randomness quality is load-bearing.  By default we draw
from ``os.urandom``.  For reproducible tests and benchmarks a seed may be
supplied, in which case a deterministic SHA-256 counter DRBG is used — the
distribution is still uniform, only predictable to whoever knows the seed.

The seeded stream is stable for a given seed *within* a revision of this
module; it is not stable across revisions (the draw granularity may
change — e.g. the pooling below changed it), so never persist expected
values derived from a seed.
"""

import hashlib
import os
import threading


class RandomSource:
    """Uniform random bits, bytes, and integers.

    Parameters
    ----------
    seed:
        ``None`` (default) for operating-system entropy, or any ``bytes`` /
        ``int`` / ``str`` for a deterministic stream derived from the seed.
    """

    def __init__(self, seed=None):
        self._lock = threading.Lock()
        if seed is None:
            self._state = None
        else:
            self._state = hashlib.sha256(self._encode_seed(seed)).digest()
            self._counter = 0
            # Undrawn DRBG output: each SHA block is 32 bytes, most draws
            # are 6-byte ports, so pooling the remainder makes the
            # amortized cost one hash per 32 bytes instead of per draw.
            self._pool = bytearray()

    @staticmethod
    def _encode_seed(seed):
        if isinstance(seed, bytes):
            return seed
        if isinstance(seed, str):
            return seed.encode("utf-8")
        if isinstance(seed, int):
            return seed.to_bytes((seed.bit_length() + 8) // 8, "big", signed=True)
        raise TypeError("seed must be bytes, str, or int, got %r" % type(seed))

    def bytes(self, n):
        """Return ``n`` uniformly random bytes."""
        if n < 0:
            raise ValueError("cannot draw %d bytes" % n)
        if self._state is None:
            return os.urandom(n)
        with self._lock:
            pool = self._pool
            while len(pool) < n:
                pool.extend(
                    hashlib.sha256(
                        self._state + self._counter.to_bytes(8, "big")
                    ).digest()
                )
                self._counter += 1
            out = bytes(pool[:n])
            del pool[:n]
            return out

    def bits(self, n):
        """Return a uniformly random integer with exactly ``n`` random bits.

        The result is in ``[0, 2**n)``; it is *not* forced to have the top
        bit set.
        """
        if n < 0:
            raise ValueError("cannot draw %d bits" % n)
        if n == 0:
            return 0
        nbytes = (n + 7) // 8
        value = int.from_bytes(self.bytes(nbytes), "big")
        return value >> (8 * nbytes - n)

    def randint(self, lo, hi):
        """Return a uniform integer in the inclusive range ``[lo, hi]``.

        Uses rejection sampling so the distribution is exactly uniform.
        """
        if lo > hi:
            raise ValueError("empty range [%d, %d]" % (lo, hi))
        span = hi - lo + 1
        nbits = span.bit_length()
        while True:
            candidate = self.bits(nbits)
            if candidate < span:
                return lo + candidate
