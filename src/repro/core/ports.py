"""Ports: sparse 48-bit service addresses, and the get/put pair (§2.2).

Every port is "really a pair of ports, P and G, related by P = F(G)".  The
server keeps the *get-port* G secret and listens on it; clients address
messages to the *put-port* P, which is public.  Because F is one-way,
knowing P does not let an intruder listen for the server's traffic.

``Port`` is the public 48-bit value that appears in capabilities and wire
headers.  ``PrivatePort`` wraps a secret value (a get-port or a signature
secret S) and can derive its public image; its repr never prints the
secret, so logs cannot leak it.
"""

from dataclasses import dataclass

from repro.crypto.oneway import PORT_BITS, default_oneway
from repro.crypto.randomsrc import RandomSource
from repro.util.bits import mask

#: Bytes occupied by a port on the wire (Fig. 2: 48 bits).
PORT_BYTES = PORT_BITS // 8

_PORT_MAX = mask(PORT_BITS)

#: Bound on each F-box's port-image cache (:mod:`repro.net.fbox`): a
#: transaction leaves one single-use entry (its fresh reply port) in it
#: and <= 3 keys a station are ever hit again (``docs/PERFORMANCE.md``
#: "Station memory").  A full cache is dropped wholesale by *rebinding*
#: to a fresh dict born with its null seed, never ``clear()``: no thread
#: sees one without it.
PORT_CACHE_MAX = 1 << 10


class Port(int):
    """A public 48-bit port value (a put-port, or any wire port field).

    A port *is* the integer it denotes: hashing, equality and ordering
    are ``int``'s own, in C, because ports key every hot table on the
    wire path (admission sinks, the routing index, event-loop queues,
    F-image, reply and locate caches).  So ``Port(5) == 5`` is true and
    ``{Port(5): x}[5]`` finds ``x`` — a recovered commit record's plain
    integer and the retry's reply port name the same reply-cache entry.
    It also makes the null port falsy, so ``cache.get(port) or compute()``
    is a trap (test ``is None``); ``port == NULL_PORT`` is the null
    test.  Instances carry no state of their own
    (``__slots__ = ()``): every port stays int-sized.
    """

    __slots__ = ()

    def __new__(cls, value):
        if not 0 <= value <= _PORT_MAX:
            raise ValueError(
                "port value %#x outside the %d-bit space" % (value, PORT_BITS)
            )
        return int.__new__(cls, value)

    #: The port as a plain ``int`` (read-only; kept for callers that
    #: predate ``Port`` being one).
    value = property(int.__int__)

    def to_bytes(self, length=PORT_BYTES, byteorder="big", *, signed=False):
        """Big-endian wire encoding, :data:`PORT_BYTES` long by default.

        Shadows ``int.to_bytes`` and keeps its signature, so code that
        treats a port as the int it is still works.
        """
        return int.to_bytes(self, length, byteorder, signed=signed)

    @classmethod
    def from_bytes(cls, data):
        """Decode exactly :data:`PORT_BYTES` big-endian bytes; any 6
        bytes are < 2**48, so only the length is checked."""
        if len(data) != PORT_BYTES:
            raise ValueError(
                "port needs exactly %d bytes, got %d" % (PORT_BYTES, len(data))
            )
        return int.__new__(cls, int.from_bytes(data, "big"))

    # ``Port._unchecked(value)``: wrap a value known to be in range,
    # skipping the range check — ``int.__new__(cls, value)`` with no
    # Python frame in between.  For trusted producers only: the one-way
    # function masks its output to PORT_BITS and the random source draws
    # exactly PORT_BITS, so re-validating their results on the per-frame
    # path buys nothing.
    _unchecked = classmethod(int.__new__)

    @classmethod
    def random(cls, rng=None):
        """Draw a fresh random port — sparse in a 2**48 space.

        Validating constructor on purpose: ``rng`` may be caller-supplied,
        and a buggy one should fail here, not later inside pack().
        """
        rng = rng or RandomSource()
        return cls(rng.bits(PORT_BITS))

    def __repr__(self):
        return "Port(%012x)" % self


#: The all-zero port, used for unused header fields.
NULL_PORT = Port(0)


def draw_ports(rng, n):
    """``n`` fresh ports from one pooled randomness read — the same
    values, in the same order, as ``n`` :meth:`Port.random` draws on a
    seeded source, for one call into it instead of ``n``.

    Any 6 bytes are below 2**48, so the range check is skipped; a source
    that returns the wrong number of bytes fails here instead.
    """
    raw = rng.bytes(PORT_BYTES * n)
    if len(raw) != PORT_BYTES * n:
        raise ValueError("random source returned a short read")
    unchecked = Port._unchecked
    from_bytes = int.from_bytes
    return [
        unchecked(from_bytes(raw[i:i + PORT_BYTES], "big"))
        for i in range(0, len(raw), PORT_BYTES)
    ]


@dataclass(frozen=True)
class PrivatePort:
    """A secret port value: a server get-port G, or a signature secret S.

    The public image ``F(secret)`` is exposed via :attr:`public`; the
    secret itself stays inside the owning process and never appears on the
    wire (the F-box transforms it on egress).
    """

    secret: int

    def __post_init__(self):
        if not 0 <= self.secret <= _PORT_MAX:
            raise ValueError("secret outside the %d-bit port space" % PORT_BITS)

    @classmethod
    def generate(cls, rng=None):
        """Choose a fresh secret port (a well-kept 48-bit secret)."""
        rng = rng or RandomSource()
        return cls(rng.bits(PORT_BITS))

    @property
    def public(self):
        """The put-port P = F(G) that clients use to reach this service.

        Computed once and cached on the instance — F is deterministic and
        the secret is immutable, so the image can never change.
        """
        cached = self.__dict__.get("_public")
        if cached is None:
            cached = Port(default_oneway()(self.secret))
            object.__setattr__(self, "_public", cached)
        return cached

    def _as_secret_port(self):
        """The secret wrapped as a :class:`Port` (cached; see ``as_port``)."""
        cached = self.__dict__.get("_secret_port")
        if cached is None:
            cached = Port(self.secret)
            object.__setattr__(self, "_secret_port", cached)
        return cached

    def __repr__(self):
        # Never print the secret: knowledge of a port IS the credential.
        return "PrivatePort(public=%r)" % self.public


def as_port(value):
    """Coerce a ``Port``, ``PrivatePort``, or integer to a :class:`Port`.

    A ``PrivatePort`` coerces to its *secret* value — this is what a
    process hands to GET or places in a reply/signature header field; the
    F-box applies F on the way out, never the caller.
    """
    if isinstance(value, Port):
        return value
    if isinstance(value, PrivatePort):
        return value._as_secret_port()
    if isinstance(value, int):
        return Port(value)
    raise TypeError("cannot interpret %r as a port" % (value,))
