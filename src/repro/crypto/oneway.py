"""The one-way function F used for ports, signatures, and check fields.

The paper (§2.2) requires a publicly known function F such that P = F(G) is
easy to compute but recovering G from P is infeasible.  We instantiate F
with SHA-256, domain-separated by a tag and truncated to the field width
(48 bits by default, matching the port and check-field widths of Fig. 2).

Distinct *tags* give independent one-way functions from the same hash; the
port logic, the XOR-rights scheme, and the software key derivations all use
different tags so that values never collide across uses.
"""

import hashlib

from repro.util.bits import mask

#: Width of Amoeba ports and check fields, in bits (Fig. 2).
PORT_BITS = 48

#: Entries kept in each instance's memo of F(value); when the memo fills
#: it is dropped wholesale (F recomputes in ~1 µs, eviction bookkeeping
#: would cost more than it saves).
_MEMO_MAX = 1 << 16


class OneWayFunction:
    """A truncated, domain-separated SHA-256 one-way function.

    Instances are callable on integers in ``[0, 2**width_bits)`` and return
    integers in the same range, so F can be iterated (as the commutative
    scheme's conceptual model requires) and compared against wire fields
    directly.

    F is deterministic, so every instance memoizes ``value -> F(value)``:
    the wire path applies F to the same handful of port values again and
    again (listen, egress, poll all one-way the same reply secret), and a
    dict hit is an order of magnitude cheaper than a SHA-256 round trip.
    """

    def __init__(self, tag=b"amoeba/F", width_bits=PORT_BITS):
        if width_bits <= 0 or width_bits > 256:
            raise ValueError("width_bits must be in (0, 256], got %d" % width_bits)
        if isinstance(tag, str):
            tag = tag.encode("utf-8")
        self.tag = tag
        self.width_bits = width_bits
        self._in_bytes = (width_bits + 7) // 8
        self._mask = mask(width_bits)
        self._memo = {}
        self._int_prefix = tag + b"\x00"

    def __call__(self, value):
        """Apply F to an integer, returning an integer of the same width."""
        memo = self._memo
        image = memo.get(value)
        if image is not None:
            return image
        image = self.raw(value)
        if len(memo) >= _MEMO_MAX:
            memo.clear()
        memo[value] = image
        return image

    def raw(self, value):
        """F without the memo, for callers that keep their own cache.

        The F-box caches ``value -> Port`` itself; routing its misses
        through here keeps each mapping in exactly one cache instead of
        two (the memo above still serves the scheme/derivation callers).
        """
        if value < 0 or value > self._mask:
            raise ValueError(
                "input %#x outside the %d-bit domain" % (value, self.width_bits)
            )
        # int.to_bytes, not value.to_bytes: the F-box hands in Ports,
        # whose own to_bytes is a Python-level wrapper.
        digest = hashlib.sha256(
            self._int_prefix + int.to_bytes(value, self._in_bytes, "big")
        ).digest()
        return int.from_bytes(digest, "big") & self._mask

    def apply_bytes(self, data):
        """Apply F to arbitrary bytes, returning ``width_bits`` as bytes.

        Used where the input is not a fixed-width integer (e.g. key
        derivation in the software-protection bootstrap).
        """
        if isinstance(data, str):
            data = data.encode("utf-8")
        digest = hashlib.sha256(self.tag + b"\x01" + data).digest()
        out_bytes = (self.width_bits + 7) // 8
        value = int.from_bytes(digest, "big") & self._mask
        return value.to_bytes(out_bytes, "big")

    def __repr__(self):
        return "OneWayFunction(tag=%r, width_bits=%d)" % (self.tag, self.width_bits)


_DEFAULT = OneWayFunction()


def default_oneway():
    """The library-wide default F (48-bit, tag ``amoeba/F``).

    Every F-box in a network must use the same F for put-ports to match;
    this accessor is that shared instance.
    """
    return _DEFAULT
