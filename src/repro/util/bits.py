"""Bit and byte manipulation helpers used across the capability machinery.

All wire formats in this reproduction are big-endian, matching the fixed
field layout of the paper's Fig. 2 (48-bit port, 24-bit object, 8-bit
rights, 48-bit check field).
"""

import hmac


def mask(bits):
    """Return an integer with the low ``bits`` bits set.

    >>> mask(8)
    255
    >>> mask(0)
    0
    """
    if bits < 0:
        raise ValueError("bit width must be non-negative, got %d" % bits)
    return (1 << bits) - 1


def constant_time_eq(a, b):
    """Compare two byte strings without leaking a timing side channel.

    Capability check fields are sparse secrets: a naive early-exit compare
    would let an intruder grow a valid check field byte by byte.
    """
    return hmac.compare_digest(a, b)
