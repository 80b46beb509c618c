"""The conceptual key matrix and capability sealing (§2.4).

"Imagine a (possibly symmetric) conceptual matrix, M, of conventional
(e.g., DES) encryption keys, with the rows being labeled by source machine
and the columns by destination machine. ... Each machine is assumed to
know the contents of its row and column of the matrix, and nothing else."

A capability in a message from machine C to machine S is encrypted under
M[C][S].  An intruder I who captures the message and plays it back will be
seen by S as source I (unforgeable), so S decrypts with M[I][S] — the
wrong key — and the capability decrypts to nonsense, which the server's
ordinary check-field validation then rejects.  No key management happens
per message; the matrix entries come from trusted setup or from the
bootstrap protocol in :mod:`~repro.softprot.boot`.
"""

from repro.core.capability import CAPABILITY_BYTES, Capability
from repro.crypto.feistel import (
    CAPABILITY_BLOCK_BITS,
    feistel_for_key,
    wide_cipher_for_key,
)
from repro.crypto.randomsrc import RandomSource
from repro.errors import MalformedCapability, SecurityError, Verdict, refuse

#: Conventional key length in the matrix, in bytes.
KEY_BYTES = 16


class KeyMatrix:
    """The full conceptual matrix — a modelling object for trusted setup.

    No machine in a real deployment holds this; machines hold a
    :class:`MachineKeyView` (their row and column).  Keys are created
    lazily and directionally: M[src][dst] and M[dst][src] differ.
    """

    def __init__(self, rng=None):
        self._rng = rng or RandomSource()
        self._keys = {}

    def key(self, src, dst):
        """The conventional key for traffic from ``src`` to ``dst``."""
        pair = (src, dst)
        existing = self._keys.get(pair)
        if existing is None:
            existing = self._rng.bytes(KEY_BYTES)
            self._keys[pair] = existing
        return existing

    def set_key(self, src, dst, key):
        """Install a key agreed out of band (the bootstrap protocol)."""
        if len(key) != KEY_BYTES:
            raise ValueError("matrix keys are %d bytes" % KEY_BYTES)
        self._keys[(src, dst)] = bytes(key)

    def view(self, machine):
        """The row-and-column slice machine ``machine`` is allowed to know."""
        return MachineKeyView(self, machine)


class MachineKeyView:
    """One machine's knowledge of the matrix: its row and its column.

    The view refuses to reveal keys between two *other* machines — the
    property that makes a captured-and-replayed message undecryptable by
    anyone but the original (source, destination) pair.
    """

    def __init__(self, matrix, machine):
        self._matrix = matrix
        self.machine = machine

    def key_to(self, dst):
        """M[self][dst]: encrypts capabilities this machine sends to dst."""
        return self._matrix.key(self.machine, dst)

    def key_from(self, src):
        """M[src][self]: decrypts capabilities arriving from src."""
        return self._matrix.key(src, self.machine)

    def key(self, src, dst):
        """Row/column lookup with the knowledge restriction enforced."""
        if src != self.machine and dst != self.machine:
            raise SecurityError(
                "machine %r may not know the key for %r -> %r"
                % (self.machine, src, dst)
            )
        return self._matrix.key(src, dst)


def _encrypt_capability(key, packed):
    """Encrypt one packed capability: 128-bit Feistel for the canonical
    16-byte layout, the wide-block cipher for extended layouts.

    Ciphers come from the per-key cache, so a matrix key's schedule (16
    hashed round keys for the Feistel case) is built on the first frame
    of a (source, destination) pair and reused for every later seal and
    unseal under that key."""
    if len(packed) == CAPABILITY_BYTES:
        return feistel_for_key(
            key, block_bits=CAPABILITY_BLOCK_BITS
        ).encrypt_bytes(packed)
    return wide_cipher_for_key(key).encrypt(packed)


def _decrypt_capability(key, sealed):
    if len(sealed) == CAPABILITY_BYTES:
        return feistel_for_key(
            key, block_bits=CAPABILITY_BLOCK_BITS
        ).decrypt_bytes(sealed)
    return wide_cipher_for_key(key).decrypt(sealed)


class CapabilitySealer:
    """Encrypts/decrypts the capabilities of messages under matrix keys.

    One sealer per machine, built around that machine's
    :class:`MachineKeyView` and (optionally) the §2.4 capability caches.
    The *data* part of messages is deliberately left alone — "the data
    need not be encrypted, although that is also possible if needed".
    """

    def __init__(self, view, client_cache=None, server_cache=None):
        self.view = view
        self.client_cache = client_cache
        self.server_cache = server_cache
        #: Number of block-cipher invocations (cache effectiveness metric).
        self.cipher_ops = 0

    # ------------------------------------------------------------------
    # single capabilities
    # ------------------------------------------------------------------

    def seal(self, capability, dst):
        """Encrypt one capability for transmission to machine ``dst``."""
        if self.client_cache is not None:
            cached = self.client_cache.lookup(capability, dst)
            if cached is not None:
                return cached
        key = self.view.key_to(dst)
        sealed = _encrypt_capability(key, capability.pack())
        self.cipher_ops += 1
        if self.client_cache is not None:
            self.client_cache.remember(capability, dst, sealed)
        return sealed

    def unseal(self, sealed, src):
        """Decrypt one capability received from machine ``src``.

        A blob sealed by any other (source, destination) pair decrypts to
        garbage; structural garbage — a blob the cipher cannot take, or
        plaintext that does not unpack — is refused ``SEAL_REJECTED``
        here, and semantic garbage (a well-formed but wrong capability)
        is rejected later by the server's check-field validation — the
        two layers the paper's argument rests on.
        """
        if self.server_cache is not None:
            cached = self.server_cache.lookup(sealed, src)
            if cached is not None:
                return cached
        key = self.view.key_from(src)
        try:
            packed = _decrypt_capability(key, sealed)
            self.cipher_ops += 1
            capability = Capability.unpack(packed)
        except (MalformedCapability, ValueError):
            refuse(Verdict.SEAL_REJECTED)
        if self.server_cache is not None:
            self.server_cache.remember(sealed, src, capability)
        return capability

    # ------------------------------------------------------------------
    # revocation hygiene
    # ------------------------------------------------------------------

    def invalidate_object(self, port, number):
        """Purge both caches of every triple for one (port, object).

        Called when the object's secret dies (``ObjectTable.refresh``
        bumps the generation; ``destroy``/aging remove it).  Without
        this, a cached (sealed, source) triple keeps translating the
        *revoked* capability's sealed form back to a structurally valid
        plaintext long after the secret it was minted under is gone —
        the cache must not outlive the revocation it exists to
        accelerate.  Servers get this wired automatically
        (``ObjectTable.on_revocation``); clients call it from the spots
        that learn about revocation (e.g. ``ServiceClient.refresh``).
        Returns the number of entries dropped.
        """
        dropped = 0
        if self.client_cache is not None:
            dropped += self.client_cache.forget_object(port, number)
        if self.server_cache is not None:
            dropped += self.server_cache.forget_object(port, number)
        return dropped

    # ------------------------------------------------------------------
    # whole messages
    # ------------------------------------------------------------------

    def seal_message(self, message, dst):
        """Move a message's plaintext capabilities into the sealed area."""
        caps = []
        if message.capability is not None:
            caps.append(message.capability)
        caps.extend(message.extra_caps)
        if not caps:
            return message
        has_header_cap = message.capability is not None
        blob = bytes([(1 if has_header_cap else 0)]) + bytes([len(caps)])
        for cap in caps:
            sealed = self.seal(cap, dst)
            blob += len(sealed).to_bytes(2, "big") + sealed
        return message.copy(capability=None, extra_caps=(), sealed_caps=blob)

    def unseal_message(self, message, src):
        """Restore a sealed message's capabilities to plaintext fields."""
        blob = message.sealed_caps
        if not blob:
            return message
        size = len(blob)
        count = blob[1] if size > 1 else -1  # a 1-byte area is truncated
        caps, pos = [], 2
        while len(caps) != count and pos + 2 <= size:
            end = pos + 2 + int.from_bytes(blob[pos:pos + 2], "big")
            if end > size:
                break
            caps.append(self.unseal(blob[pos + 2:end], src))
            pos = end
        if len(caps) != count:  # the area ends before its count
            refuse(Verdict.SEAL_REJECTED)
        header_cap = caps.pop(0) if blob[0] and caps else None
        return message.copy(
            capability=header_cap, extra_caps=tuple(caps), sealed_caps=b""
        )
