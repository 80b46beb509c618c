"""The capability object and its Fig. 2 wire layout.

A capability names and protects one object::

    Server Port    Object    Rights    Check Field
       48 bits    24 bits    8 bits      48 bits

The canonical encoding is exactly 128 bits.  Rights-protection scheme 3
(commutative one-way functions) needs check values the size of a group
element (~64 bytes), so an *extended* encoding also exists — a
deviation from Fig. 2 that :mod:`repro.crypto.commutative` argues for.
Both encodings are self-describing by length.
"""

from dataclasses import dataclass, replace

from repro.core.ports import PORT_BYTES, Port
from repro.core.rights import Rights
from repro.errors import Verdict, refuse
from repro.util.bits import constant_time_eq

#: Width of the object-number field (Fig. 2: 24 bits).
OBJECT_BITS = 24
OBJECT_BYTES = OBJECT_BITS // 8

#: Canonical check-field width (Fig. 2: 48 bits).
CHECK_BYTES = 6

#: Total canonical capability size: 6 + 3 + 1 + 6 bytes = 128 bits.
CAPABILITY_BYTES = PORT_BYTES + OBJECT_BYTES + 1 + CHECK_BYTES

#: Extended check fields must be at least this long, so that an extended
#: encoding can never be confused with the 16-byte canonical one.
_MIN_EXTENDED_CHECK = 8

_EXTENDED_HEADER = PORT_BYTES + OBJECT_BYTES + 1 + 2  # + 2-byte check length


@dataclass(frozen=True)
class Capability:
    """An unforgeable-in-practice reference to one object on one server.

    Capabilities live in user address space as plain data; what makes them
    safe to hand around is that the ``check`` field is *sparse* — a random
    value (or a one-way image of one) in a space far too large to guess.
    """

    port: Port
    object: int
    rights: Rights
    check: bytes

    def __post_init__(self):
        if not 0 <= self.object < (1 << OBJECT_BITS):
            raise ValueError(
                "object number %#x outside the %d-bit field"
                % (self.object, OBJECT_BITS)
            )
        if not isinstance(self.rights, Rights):
            object.__setattr__(self, "rights", Rights(self.rights))
        if len(self.check) != CHECK_BYTES and len(self.check) < _MIN_EXTENDED_CHECK:
            raise ValueError(
                "check field must be %d bytes (canonical) or >= %d bytes "
                "(extended), got %d"
                % (CHECK_BYTES, _MIN_EXTENDED_CHECK, len(self.check))
            )

    def pack(self):
        """Serialise to bytes (16 bytes canonical, longer for extended).

        The image is cached on the instance: capabilities are frozen, so
        the encoding can never change, and the hot path (header cap on
        every request of a session) re-packs the same object per frame.
        """
        packed = self.__dict__.get("_packed")
        if packed is not None:
            return packed
        head = (
            self.port.to_bytes()
            + self.object.to_bytes(OBJECT_BYTES, "big")
            + bytes([int(self.rights)])
        )
        if len(self.check) == CHECK_BYTES:
            packed = head + self.check
        else:
            packed = head + len(self.check).to_bytes(2, "big") + self.check
        object.__setattr__(self, "_packed", packed)
        return packed

    @classmethod
    def _trusted(cls, port, obj, rights, check):
        """Build a capability skipping the ``__post_init__`` range checks.

        Only for wire decoding: the caller guarantees ``obj`` came from
        a 3-byte field, ``rights`` is a :class:`Rights`, and ``check`` is
        bytes of a validated length.
        """
        cap = cls.__new__(cls)
        object.__setattr__(cap, "port", port)
        object.__setattr__(cap, "object", obj)
        object.__setattr__(cap, "rights", rights)
        object.__setattr__(cap, "check", check)
        return cap

    @classmethod
    def unpack(cls, data):
        """Parse bytes produced by :meth:`pack`.

        Refuses :attr:`~repro.errors.Verdict.MALFORMED` on any size or
        framing violation — a server must never guess at a mangled
        capability.
        """
        size = len(data)
        if size == CAPABILITY_BYTES:
            check = data[CAPABILITY_BYTES - CHECK_BYTES:]
        elif (size >= _EXTENDED_HEADER + _MIN_EXTENDED_CHECK
              and size - _EXTENDED_HEADER == int.from_bytes(
                  data[_EXTENDED_HEADER - 2:_EXTENDED_HEADER], "big")):
            check = data[_EXTENDED_HEADER:]
        else:
            refuse(Verdict.MALFORMED)
        # _trusted is sound: each field is a fixed-width slice of a frame
        # whose length was just checked, so it is in range by construction.
        return cls._trusted(
            int.__new__(Port, int.from_bytes(data[:PORT_BYTES], "big")),
            int.from_bytes(data[PORT_BYTES:PORT_BYTES + OBJECT_BYTES], "big"),
            Rights(data[PORT_BYTES + OBJECT_BYTES]),
            bytes(check),
        )

    def with_check(self, check):
        """A copy with a different check field."""
        return replace(self, check=bytes(check))

    def __eq__(self, other):
        if not isinstance(other, Capability):
            return NotImplemented
        # Constant-time on the check field: equality tests against a
        # genuine capability must not leak matching prefixes.
        return (
            self.port == other.port
            and self.object == other.object
            and int(self.rights) == int(other.rights)
            and constant_time_eq(self.check, other.check)
        )

    def __hash__(self):
        return hash((self.port, self.object, int(self.rights), self.check))

    def __repr__(self):
        return "Capability(port=%012x, object=%d, rights=%s, check=%s…)" % (
            self.port,
            self.object,
            format(int(self.rights), "08b"),
            self.check[:4].hex(),
        )
