"""The four rights-protection algorithms of §2.3.

All four share one contract: the server stores a per-object *secret*; a
capability carries a RIGHTS field and a CHECK field; and ``verify``
returns the effective rights, or None for the object table to refuse.
They differ in how tampering is detected and in where a capability with
fewer rights can be fabricated:

``SimpleCheckScheme`` (the paper's "simplest" system)
    CHECK is the stored random number itself.  Easy, but all-or-nothing:
    a valid capability grants every operation.

``EncryptedRightsScheme`` (first algorithm)
    RIGHTS and a known constant are encrypted together under a per-object
    key; the ciphertext fills the combined RIGHTS+CHECK fields.  Decrypting
    to the known constant authenticates the rights.

``XorOneWayScheme`` (second algorithm)
    CHECK = F(random XOR rights); RIGHTS travels in plaintext.  Tampering
    with the plaintext rights makes the recomputed image disagree.

``CommutativeScheme`` (third algorithm)
    CHECK starts as the random number; deleting right k replaces CHECK with
    F_k(CHECK) where the F_k commute.  Uniquely, a *client* can produce a
    weaker sub-capability without a server round-trip.

Restriction with the first two algorithms "requires going back to the
server every time"; the registry and the standard-operations RPC layer
expose that round-trip, and the benchmarks count the messages.
"""

from abc import ABC, abstractmethod

from repro.core.capability import CHECK_BYTES, Capability
from repro.core.rights import ALL_RIGHTS, RIGHTS_WIDTH, Rights
from repro.crypto.commutative import CommutativeOneWayFamily
from repro.crypto.feistel import RIGHTS_CHECK_BLOCK_BITS, feistel_for_key
from repro.crypto.oneway import OneWayFunction
from repro.errors import BadRequest
from repro.util.bits import constant_time_eq, mask

#: Width of the canonical check field in bits.
CHECK_BITS = CHECK_BYTES * 8


class ProtectionScheme(ABC):
    """Mint, verify, and restrict the RIGHTS/CHECK fields of capabilities.

    A scheme never sees whole capabilities or the object table — only the
    per-object secret and the two protected fields — so the same scheme
    code serves every kind of server.
    """

    #: Short stable identifier, usable in configuration and benchmarks.
    name = "abstract"

    #: True when a client can fabricate a weaker capability locally.
    client_restrictable = False

    #: True when the scheme can produce capabilities with reduced rights
    #: at all (the simple scheme cannot).
    supports_restriction = True

    #: Length in bytes of the check fields this scheme emits.
    check_bytes = CHECK_BYTES

    @abstractmethod
    def new_secret(self, rng):
        """Draw the per-object secret stored in the server's table."""

    @abstractmethod
    def mint(self, secret, rights):
        """Build the protected fields for a fresh capability.

        Returns ``(rights_field, check_field)``; ``rights_field`` is what
        goes in the capability's RIGHTS slot, which for the encrypted
        scheme is ciphertext rather than the plaintext rights.
        """

    @abstractmethod
    def verify(self, secret, rights_field, check):
        """Validate the protected fields against the stored secret.

        Returns the effective :class:`Rights`, or None when the fields
        do not validate.  Must not leak timing about how close a forged
        check field was.
        """

    def restrict(self, secret, effective, keep_mask):
        """Server-side fabrication of a sub-capability (fewer rights).

        ``effective`` is what :meth:`verify` granted the parent
        capability; the object table validates before it calls here.
        Default implementation: intersect, re-mint.  Schemes that cannot
        express reduced rights override this to refuse.
        """
        return self.mint(secret, effective.restrict(keep_mask))


class SimpleCheckScheme(ProtectionScheme):
    """§2.3's simplest system: CHECK is the object's random number.

    "If they agree, the capability is assumed to be genuine, and all
    operations on the file are allowed."  The RIGHTS field is therefore
    advisory only; :meth:`verify` grants :data:`ALL_RIGHTS` regardless.
    """

    name = "simple"
    supports_restriction = False

    def new_secret(self, rng):
        return rng.bits(CHECK_BITS)

    def mint(self, secret, rights):
        # The rights argument is accepted for interface uniformity but the
        # scheme cannot enforce anything less than everything.
        return ALL_RIGHTS, secret.to_bytes(CHECK_BYTES, "big")

    def verify(self, secret, rights_field, check):
        valid = constant_time_eq(check, secret.to_bytes(CHECK_BYTES, "big"))
        return ALL_RIGHTS if valid else None

    def restrict(self, secret, effective, keep_mask):
        raise BadRequest(
            "the simple scheme cannot mint capabilities with fewer rights"
        )


class EncryptedRightsScheme(ProtectionScheme):
    """§2.3 first algorithm: encrypt RIGHTS + known constant per object.

    The per-object secret is an encryption key.  Minting encrypts the
    56-bit block ``rights || 0`` and spreads the ciphertext across the
    RIGHTS and CHECK fields; verification decrypts and demands the known
    constant.  A PRP "mixes the bits thoroughly", so flipping any
    ciphertext bit scrambles the constant (the paper notes a plain XOR
    would not do).
    """

    name = "encrypted"

    #: The known constant occupying the check half of the plaintext block.
    KNOWN_CONSTANT = 0

    _KEY_BYTES = 16

    def new_secret(self, rng):
        return rng.bytes(self._KEY_BYTES)

    def _cipher(self, secret):
        # Per-key cache: the key schedule for an object's secret is built
        # on the first mint/verify, not on every capability check.
        return feistel_for_key(secret, block_bits=RIGHTS_CHECK_BLOCK_BITS)

    def mint(self, secret, rights):
        rights = Rights(rights)
        block = (int(rights) << CHECK_BITS) | self.KNOWN_CONSTANT
        ct = self._cipher(secret).encrypt(block)
        rights_field = Rights(ct >> CHECK_BITS)
        check = (ct & mask(CHECK_BITS)).to_bytes(CHECK_BYTES, "big")
        return rights_field, check

    def verify(self, secret, rights_field, check):
        if len(check) != CHECK_BYTES:
            return None
        ct = (int(rights_field) << CHECK_BITS) | int.from_bytes(check, "big")
        pt = self._cipher(secret).decrypt(ct)
        constant = pt & mask(CHECK_BITS)
        rights = pt >> CHECK_BITS
        # Compare via bytes so the check is constant-time like the others.
        expected = self.KNOWN_CONSTANT.to_bytes(CHECK_BYTES, "big")
        valid = constant_time_eq(constant.to_bytes(CHECK_BYTES, "big"), expected)
        return Rights(rights) if valid else None


class XorOneWayScheme(ProtectionScheme):
    """§2.3 second algorithm: CHECK = F(random XOR rights), plaintext rights.

    This is the scheme production Amoeba adopted.  The rights field is
    visible and tamper-evident: the server XORs the presented rights into
    its stored random number, one-ways the result, and compares.
    """

    name = "xor-oneway"

    def __init__(self, oneway=None):
        self._f = oneway or OneWayFunction(tag=b"amoeba/rights", width_bits=CHECK_BITS)

    def new_secret(self, rng):
        return rng.bits(CHECK_BITS)

    def _image(self, secret, rights):
        return self._f(secret ^ int(rights)).to_bytes(CHECK_BYTES, "big")

    def mint(self, secret, rights):
        rights = Rights(rights)
        return rights, self._image(secret, rights)

    def verify(self, secret, rights_field, check):
        if len(check) == CHECK_BYTES and constant_time_eq(
                check, self._image(secret, rights_field)):
            return Rights(rights_field)
        return None


class CommutativeScheme(ProtectionScheme):
    """§2.3 third algorithm: commutative one-way functions per rights bit.

    CHECK starts as the object's random group element R with all rights
    set.  Whoever holds a capability — client or server — deletes right k
    by replacing CHECK with F_k(CHECK) and clearing bit k; commutativity
    makes the result independent of deletion order.  The server verifies
    by applying the functions for every *deleted* right to its stored R
    and comparing.

    Check fields are group elements (~64 bytes), so these capabilities
    use the extended encoding of :mod:`repro.core.capability`.
    """

    name = "commutative"
    client_restrictable = True

    def __init__(self, family=None):
        self.family = family or CommutativeOneWayFamily()
        if self.family.n_functions < RIGHTS_WIDTH:
            raise ValueError(
                "family provides %d functions but the rights field has %d bits"
                % (self.family.n_functions, RIGHTS_WIDTH)
            )
        self.check_bytes = self.family.element_bytes

    def new_secret(self, rng):
        return self.family.random_element(rng)

    def _encode(self, element):
        return element.to_bytes(self.family.element_bytes, "big")

    def _decode(self, check):  # the group element, or None
        if len(check) != self.family.element_bytes:
            return None
        value = int.from_bytes(check, "big")
        return value if value < self.family.modulus else None

    def mint(self, secret, rights):
        rights = Rights(rights)
        element = self.family.apply_many(rights.clear_bits(), secret)
        return rights, self._encode(element)

    def verify(self, secret, rights_field, check):
        presented = self._decode(check)
        if presented is None:
            return None
        expected = self.family.apply_many(Rights(rights_field).clear_bits(), secret)
        valid = constant_time_eq(self._encode(presented), self._encode(expected))
        return Rights(rights_field) if valid else None

    def client_restrict(self, capability, keep_mask):
        """Fabricate a weaker capability *without the server* (the paper's
        headline property for this algorithm).

        Applies F_k for every right being dropped and clears those bits.
        Needs no secret: one-wayness means the original stronger check
        cannot be recovered from the result.
        """
        if not isinstance(capability, Capability):
            raise TypeError("client_restrict operates on whole capabilities")
        old_rights = capability.rights
        new_rights = old_rights.restrict(keep_mask)
        dropped = [k for k in old_rights.set_bits() if not new_rights.has(k)]
        element = self._decode(capability.check)
        if element is None:
            raise ValueError("check field is not a group element")
        for k in dropped:
            element = self.family.apply(k, element)
        return Capability(
            port=capability.port,
            object=capability.object,
            rights=new_rights,
            check=self._encode(element),
        )

    def recover_rights(self, secret, check):
        """Brute-force the rights field from CHECK alone.

        The paper observes that "in theory at least, the RIGHTS field is
        not even needed, since the server could try all 2**N combinations";
        this method implements that observation so the benchmarks can show
        why the plaintext field is kept (it is a 256x speedup).  None
        when no combination validates.
        """
        presented = self._decode(check)
        if presented is None:
            return None
        for bits in range(1 << RIGHTS_WIDTH):
            rights = Rights(bits)
            if self.family.apply_many(rights.clear_bits(), secret) == presented:
                return rights
        return None


_SCHEMES = {
    cls.name: cls
    for cls in (
        SimpleCheckScheme,
        EncryptedRightsScheme,
        XorOneWayScheme,
        CommutativeScheme,
    )
}


def scheme_by_name(name, **kwargs):
    """Instantiate a protection scheme from its stable name.

    >>> scheme_by_name("xor-oneway").name
    'xor-oneway'
    """
    try:
        cls = _SCHEMES[name]
    except KeyError:
        raise ValueError(
            "unknown scheme %r (have: %s)" % (name, ", ".join(sorted(_SCHEMES)))
        ) from None
    return cls(**kwargs)


def all_scheme_names():
    """Names of every available scheme, in the paper's presentation order."""
    return ("simple", "encrypted", "xor-oneway", "commutative")
