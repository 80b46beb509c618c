"""Ablations over the design choices the crypto and cache modules make
(``crypto/feistel.py``, ``crypto/commutative.py``, ``crypto/oneway.py``,
``softprot/cache.py``; each module's docstring states its choice).

* Feistel round count — why 16 rounds (DES parity) and not fewer/more:
  cost is linear in rounds, avalanche saturates early; 16 is comfortably
  past saturation at ~2x the minimum sound cost.
* Commutative modulus size — why 512 bits: cost grows ~quadratically,
  256 would be cheap but weak, 1024 doubles-plus the latency.
* One-way output width — the 48-bit truncation of Fig. 2 costs nothing:
  the hash dominates, truncation width is free.
* Capability-cache capacity — hit rate vs working set: the §2.4 cache
  only needs to cover the hot working set to eliminate cipher cost.
"""

import pytest

from repro.core.capability import Capability
from repro.core.ports import Port
from repro.core.rights import Rights
from repro.crypto.commutative import CommutativeOneWayFamily
from repro.crypto.feistel import FeistelCipher
from repro.crypto.oneway import OneWayFunction
from repro.crypto.primes import generate_prime
from repro.crypto.randomsrc import RandomSource
from repro.softprot.cache import ClientCapabilityCache
from repro.softprot.matrix import CapabilitySealer, KeyMatrix


class TestFeistelRounds:
    @pytest.mark.parametrize("rounds", [4, 8, 16, 32])
    def test_encrypt_cost_by_rounds(self, benchmark, rounds):
        cipher = FeistelCipher(b"ablation key", rounds=rounds)
        ct = benchmark(cipher.encrypt, 0x0123456789ABCD)
        assert cipher.decrypt(ct) == 0x0123456789ABCD

    @pytest.mark.parametrize("rounds", [4, 8, 16])
    def test_avalanche_quality_by_rounds(self, rounds):
        """Average flipped output bits for a 1-bit input change should sit
        near 28 (half of 56) once the network is sound."""
        cipher = FeistelCipher(b"ablation key", rounds=rounds)
        total = 0
        samples = 200
        for i in range(samples):
            a = cipher.encrypt(i)
            b = cipher.encrypt(i ^ 1)
            total += bin(a ^ b).count("1")
        average = total / samples
        assert 18 <= average <= 38  # centred on 28 for any sound count


@pytest.fixture(scope="module")
def moduli():
    """RSA-style moduli of three sizes, factors discarded."""
    rng = RandomSource(seed=404)
    out = {}
    for bits in (256, 512, 1024):
        p = generate_prime(bits // 2, rng,
                           avoid_divisors_of_p_minus_1=(3, 5, 7, 11, 13, 17, 19, 23))
        q = generate_prime(bits // 2, rng,
                           avoid_divisors_of_p_minus_1=(3, 5, 7, 11, 13, 17, 19, 23))
        out[bits] = p * q
    return out


class TestCommutativeModulusSize:
    @pytest.mark.parametrize("bits", [256, 512, 1024])
    def test_apply_cost_by_modulus(self, benchmark, moduli, bits):
        family = CommutativeOneWayFamily(modulus=moduli[bits])
        x = family.random_element(RandomSource(seed=1))
        y = benchmark(family.apply, 3, x)
        assert 0 <= y < family.modulus

    @pytest.mark.parametrize("bits", [256, 512, 1024])
    def test_full_verify_cost_by_modulus(self, benchmark, moduli, bits):
        # Worst case: all eight rights deleted -> composite exponent.
        family = CommutativeOneWayFamily(modulus=moduli[bits])
        x = family.random_element(RandomSource(seed=2))
        y = benchmark(family.apply_many, tuple(range(8)), x)
        assert 0 <= y < family.modulus


class TestOneWayWidth:
    @pytest.mark.parametrize("width", [48, 64, 128, 256])
    def test_oneway_cost_by_width(self, benchmark, width):
        f = OneWayFunction(width_bits=width)
        out = benchmark(f, 12345)
        assert out < (1 << width)


class TestCacheCapacity:
    @pytest.mark.parametrize("capacity", [8, 64, 512])
    def test_hit_rate_vs_working_set(self, capacity):
        """Working set of 64 capabilities cycled repeatedly: the cache
        eliminates cipher work exactly when it covers the set."""
        matrix = KeyMatrix(rng=RandomSource(seed=3))
        sealer = CapabilitySealer(
            matrix.view(1), client_cache=ClientCapabilityCache(capacity)
        )
        caps = [
            Capability(port=Port(5), object=n, rights=Rights(0xFF),
                       check=bytes([n % 256]) * 6)
            for n in range(64)
        ]
        for _ in range(4):
            for cap in caps:
                sealer.seal(cap, 2)
        cache = sealer.client_cache
        if capacity >= 64:
            assert cache.hits >= 3 * 64  # everything after the first pass
        else:
            assert cache.hits == 0  # LRU thrashing: cyclic scan, no reuse

    @pytest.mark.parametrize("capacity", [8, 512])
    def test_seal_cost_with_capacity(self, benchmark, capacity):
        matrix = KeyMatrix(rng=RandomSource(seed=4))
        sealer = CapabilitySealer(
            matrix.view(1), client_cache=ClientCapabilityCache(capacity)
        )
        caps = [
            Capability(port=Port(5), object=n, rights=Rights(0xFF),
                       check=bytes([n % 256]) * 6)
            for n in range(64)
        ]
        state = {"i": 0}

        def seal_next():
            cap = caps[state["i"] % 64]
            state["i"] += 1
            return sealer.seal(cap, 2)

        benchmark(seal_next)
