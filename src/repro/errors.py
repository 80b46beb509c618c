"""Exception hierarchy and wire error codes for the Amoeba reproduction.

Amoeba RPC replies carry a small integer status; servers map exceptions to
codes when replying and clients map codes back to exceptions, so the same
exception types flow end to end whether a server is called in-process or
over the (simulated or real) network.  A capability check ends in one
decision (§2.2-2.3): admit, or :func:`refuse` one :class:`Verdict`.
"""

from enum import Enum


class AmoebaError(Exception):
    """Base class for every error raised by this library."""

    #: Wire status code carried in RPC reply headers.
    code = 1


class CapabilityError(AmoebaError):
    """Base class for capability validation failures."""

    code = 10


class InvalidCapability(CapabilityError):
    """The check field does not validate: forged, corrupted, or revoked."""

    code = 11


class PermissionDenied(CapabilityError):
    """The capability is genuine but lacks the rights bit for the operation."""

    code = 12


class NoSuchObject(CapabilityError):
    """The object number does not exist in the server's object table."""

    code = 13


class MalformedCapability(CapabilityError):
    """The capability bytes cannot be parsed into the Fig. 2 layout."""

    code = 14


class Verdict(Enum):
    """The closed set of capability refusals, each one error class and
    one fixed text.  A forged capability and a revoked one both fail the
    check, and the server cannot tell them apart: both are BAD_CHECK."""

    MALFORMED = (MalformedCapability, "capability does not parse")
    NO_SUCH_OBJECT = (NoSuchObject, "no such object")
    BAD_CHECK = (InvalidCapability, "check field does not validate")
    RIGHTS = (PermissionDenied, "capability lacks a required right")
    SEAL_REJECTED = (InvalidCapability, "sealed capability rejected")

    def __init__(self, error, text):
        self.error = error
        self.text = text


def refuse(verdict):
    """The one raise of a :class:`CapabilityError`."""
    raise verdict.error(verdict.text)


class RPCError(AmoebaError):
    """Base class for transport and request/reply failures."""

    code = 20


class PortNotLocated(RPCError):
    """No machine answered a LOCATE for the destination put-port."""

    code = 21


class RPCTimeout(RPCError):
    """The blocking transaction did not complete in time."""

    code = 22


class BadRequest(RPCError):
    """The server could not parse the request (unknown opcode, bad params)."""

    code = 23


class PartitionSuspected(RPCTimeout):
    """Every known replica of a multi-member service went silent at once.

    One dead member is a crash; the *whole* pool timing out in a single
    transaction is the signature of an unreachable network, so the retry
    layer raises this RPCTimeout subclass instead.  Callers that only
    know RPCTimeout keep working.  Either way the client's locate cache
    is left with nothing for the port, so its next call broadcasts
    LOCATE and finds the pool again once the network heals.
    """

    code = 24


class ServerError(AmoebaError):
    """Base class for per-server semantic failures."""

    code = 30


class OutOfSpace(ServerError):
    """The disk or memory resource backing the server is exhausted."""

    code = 31


class NameNotFound(ServerError):
    """Directory lookup failed for the given name."""

    code = 32


class NameExists(ServerError):
    """Directory entry already present and overwrite was not requested."""

    code = 33


class VersionConflict(ServerError):
    """Optimistic commit lost the race: the base version is no longer newest."""

    code = 34


class VersionImmutable(ServerError):
    """Attempt to modify a committed (write-once) file version."""

    code = 35


class InsufficientFunds(ServerError):
    """Bank transfer or payment exceeds the account balance."""

    code = 36


class UnknownCurrency(ServerError):
    """The bank account has no balance in the requested currency."""

    code = 37


class InconvertibleCurrency(ServerError):
    """Conversion requested between currencies with no exchange rate."""

    code = 38


class ProcessStateError(ServerError):
    """Process operation invalid in the current state (e.g. start a runner)."""

    code = 39


class SecurityError(AmoebaError):
    """Cryptographic protocol failure (bootstrap handshake, bad signature)."""

    code = 40


class WriteOnceViolation(ServerError):
    """Attempt to rewrite a block on write-once media (video disk, §3.5)."""

    code = 41


class DiskFault(ServerError):
    """A simulated disk misbehaved (torn write, lost write, bad media)."""

    code = 42


class PowerFailure(DiskFault):
    """The machine lost power mid-I/O; the process owning the disk is gone."""

    code = 43


#: Status code for a successful reply.
STATUS_OK = 0

_CODE_TO_EXCEPTION = {}


def _register(cls):
    _CODE_TO_EXCEPTION[cls.code] = cls


for _cls in (
    AmoebaError,
    CapabilityError,
    InvalidCapability,
    PermissionDenied,
    NoSuchObject,
    MalformedCapability,
    RPCError,
    PortNotLocated,
    RPCTimeout,
    BadRequest,
    PartitionSuspected,
    ServerError,
    OutOfSpace,
    NameNotFound,
    NameExists,
    VersionConflict,
    VersionImmutable,
    InsufficientFunds,
    UnknownCurrency,
    InconvertibleCurrency,
    ProcessStateError,
    SecurityError,
    WriteOnceViolation,
    DiskFault,
    PowerFailure,
):
    _register(_cls)


def error_to_code(exc):
    """Map an exception instance to its wire status code."""
    if isinstance(exc, AmoebaError):
        return exc.code
    return AmoebaError.code


def code_to_error(code, message=""):
    """Map a wire status code back to an exception instance.

    Unknown codes map to the base ``AmoebaError`` so a newer server cannot
    crash an older client.
    """
    cls = _CODE_TO_EXCEPTION.get(code, AmoebaError)
    return cls(message)
