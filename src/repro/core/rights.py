"""The 8-bit RIGHTS field of a capability (Fig. 2).

Each bit grants one operation; which operation each bit means is a
per-server convention (the block server's bit 0 is "read the block", the
bank server's bit 0 is "inspect the account", and so on).  This module is
only the generic bit-mask algebra; servers define named constants.
"""

from repro.util.bits import mask

#: Width of the rights field in bits (Fig. 2).
RIGHTS_WIDTH = 8

# The field's largest value, computed once: ``Rights`` is built on every
# capability unpack, so a ``mask()`` call per construction is a frame.
_RIGHTS_MAX = mask(RIGHTS_WIDTH)


class Rights(int):
    """An immutable 8-bit rights mask.

    ``Rights`` is an ``int`` subclass so it packs directly into wire
    formats and composes with ``&``/``|``, while offering the set-style
    queries the protection schemes need.
    """

    WIDTH = RIGHTS_WIDTH

    def __new__(cls, bits=_RIGHTS_MAX):
        bits = int(bits)
        if bits < 0 or bits > _RIGHTS_MAX:
            raise ValueError(
                "rights %#x outside the %d-bit field" % (bits, RIGHTS_WIDTH)
            )
        return super().__new__(cls, bits)

    def has(self, bit_index):
        """True if the right at ``bit_index`` (0..7) is present."""
        if not 0 <= bit_index < RIGHTS_WIDTH:
            raise IndexError("rights bit %d outside [0, %d)" % (bit_index, RIGHTS_WIDTH))
        return bool((self >> bit_index) & 1)

    def has_all(self, required):
        """True if every bit of ``required`` is present in this mask."""
        required = int(required)
        return (self & required) == required

    def restrict(self, keep_mask):
        """Return the rights retained after intersecting with ``keep_mask``.

        This is the client-visible semantics of handing out a
        sub-capability: rights can only shrink, never grow.
        """
        return Rights(self & int(keep_mask))

    def without(self, drop_mask):
        """Return the rights with every bit of ``drop_mask`` removed."""
        return Rights(self & ~int(drop_mask) & _RIGHTS_MAX)

    def set_bits(self):
        """Indices of the rights that are present, ascending."""
        return tuple(i for i in range(RIGHTS_WIDTH) if (self >> i) & 1)

    def clear_bits(self):
        """Indices of the rights that have been deleted, ascending.

        Scheme 3 applies one commutative one-way function per *deleted*
        right, so this is the set the verifier iterates.
        """
        return tuple(i for i in range(RIGHTS_WIDTH) if not (self >> i) & 1)

    def __repr__(self):
        return "Rights(0b%s)" % format(int(self), "08b")


#: Every operation permitted — the state of a freshly minted owner capability.
ALL_RIGHTS = Rights(_RIGHTS_MAX)

#: No operations permitted.
NO_RIGHTS = Rights(0)
