"""The standard Amoeba message format (§2.1, §2.2).

"The standard message format provides a place for one capability in the
header, typically for the object being operated on ... The header also
contains room for the operation code and some parameters."  With F-boxes
the header carries three port fields: destination (P), reply (G' before
the F-box, F(G') on the wire), and signature (S before, F(S) on).

The binary layout (big-endian) is::

    magic   2  b"AM"
    version 1
    flags   1  bit 0 = reply
    dest    6  put-port
    reply   6  get-port secret on egress; put-port on the wire
    signat  6  signature secret on egress; public image on the wire
    command 2  operation code (request) — echoed in replies
    status  2  reply status (0 = OK); 0 in requests
    offset  8  position parameter (file offset, etc.)
    size    4  size parameter
    caplen  2  length of the packed capability (0 if none)
    datalen 4  length of the data part
    cap     caplen bytes
    data    datalen bytes

Two construction disciplines share this one layout (see
``docs/PERFORMANCE.md``):

* the **untrusted** path — ``Message(...)``, ``copy()`` — runs the full
  ``__init__`` range checks, because the values may come from a hostile
  or buggy caller;
* the **trusted** path — ``unpack``, ``reply_to`` and the copies
  ``_addressed`` / ``_evolve`` — skips them and writes the twelve slots
  straight down (``Message`` has no instance dict).  For ``unpack`` this
  is sound because the fixed header is decoded with width-limited struct
  codes (``H``/``Q``/``I``) and the ports with exact-length interned wire
  decoding, so every field is in range by construction; for the others
  the source message was already validated when it was built.

``unpack`` validates and decodes the whole frame in one pass: every
error a frame can produce (magic, version, lengths, capability and
extra-cap framing) is raised by ``unpack`` itself, and what it returns
is a plain ``Message`` with every field decoded.
"""

import struct
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core import ports as _ports
from repro.core.capability import Capability
from repro.core.ports import NULL_PORT, PORT_BYTES, Port
from repro.errors import BadRequest

_MAGIC = b"AM"
_VERSION = 1
_FLAG_REPLY = 0x01
#: The capability area holds matrix-encrypted blobs (§2.4), not plaintext.
_FLAG_SEALED = 0x02

_FIXED = struct.Struct(">2sBB6s6s6sHHQIHI")

#: Serialized size of the fixed header, in bytes.
HEADER_BYTES = _FIXED.size


@dataclass(init=False, slots=True)
class Message:
    """One request or reply message: twelve slots, no instance dict.

    ``reply`` and ``signature`` hold *secrets* while the message is inside
    the sending process; the F-box replaces them with their one-way images
    on egress, so the wire never carries a get-port or signature secret.
    """

    dest: Port = NULL_PORT
    reply: Port = NULL_PORT
    signature: Port = NULL_PORT
    command: int = 0
    status: int = 0
    offset: int = 0
    size: int = 0
    capability: Optional[Capability] = None
    data: bytes = b""
    is_reply: bool = False
    #: Extra capabilities travelling in the data field (the paper: "users
    #: are free to put other capabilities in the data field as required").
    extra_caps: tuple = field(default_factory=tuple)
    #: §2.4 software protection: when non-empty, the capability area of
    #: the wire format carries this encrypted blob instead of plaintext
    #: capabilities; ``capability`` and ``extra_caps`` must then be empty.
    sealed_caps: bytes = b""

    def __init__(self, dest=NULL_PORT, reply=NULL_PORT, signature=NULL_PORT,
                 command=0, status=0, offset=0, size=0, capability=None,
                 data=b"", is_reply=False, extra_caps=(), sealed_caps=b""):
        # By hand, in field order: one frame where the generated __init__
        # and __post_init__ were two.
        if not 0 <= command < (1 << 16):
            raise ValueError("command %d outside u16" % command)
        if not 0 <= status < (1 << 16):
            raise ValueError("status %d outside u16" % status)
        if not 0 <= offset < (1 << 64):
            raise ValueError("offset %d outside u64" % offset)
        if not 0 <= size < (1 << 32):
            raise ValueError("size %d outside u32" % size)
        self.dest = dest
        self.reply = reply
        self.signature = signature
        self.command = command
        self.status = status
        self.offset = offset
        self.size = size
        self.capability = capability
        self.data = data.encode("utf-8") if isinstance(data, str) else data
        self.is_reply = is_reply
        self.extra_caps = extra_caps
        self.sealed_caps = sealed_caps

    def pack(self):
        """Serialise to wire bytes: one struct call for the fixed header
        and a single ``bytes.join`` — measured faster than packing into
        a preallocated buffer, whose slice splices cost more than the
        joins they avoid.  The ports are encoded with the C-level
        ``int.to_bytes``; ``Port.to_bytes()`` is a Python wrapper
        around it.
        """
        flags = _FLAG_REPLY if self.is_reply else 0
        if self.sealed_caps:
            if self.capability is not None or self.extra_caps:
                raise ValueError(
                    "a sealed message cannot also carry plaintext capabilities"
                )
            flags |= _FLAG_SEALED
            cap_bytes = self.sealed_caps
        else:
            cap_bytes = self.capability.pack() if self.capability else b""
        data = self.data
        extra_caps = self.extra_caps
        if extra_caps:
            parts = [bytes((len(extra_caps),))]
            for cap in extra_caps:
                packed = cap.pack()
                parts.append(len(packed).to_bytes(2, "big"))
                parts.append(packed)
            extras = b"".join(parts)
        else:
            extras = b"\x00"
        head = _FIXED.pack(
            _MAGIC, _VERSION, flags,
            int.to_bytes(self.dest, PORT_BYTES, "big"),
            int.to_bytes(self.reply, PORT_BYTES, "big"),
            int.to_bytes(self.signature, PORT_BYTES, "big"),
            self.command, self.status, self.offset, self.size,
            len(cap_bytes), len(extras) + len(data),
        )
        return b"".join((head, cap_bytes, extras, data))

    @classmethod
    def unpack(cls, raw):
        """Parse wire bytes; raises :class:`BadRequest` on framing errors
        and :class:`~repro.errors.MalformedCapability` on a mangled
        capability.  One pass validates and decodes: a malformed frame
        raises here, never later, and the result is a plain message with
        every field decoded (the trusted constructor — see the module
        docstring for why no range check is needed).
        """
        if len(raw) < HEADER_BYTES:
            raise BadRequest("message truncated at %d bytes" % len(raw))
        (magic, version, flags, dest, reply, signature, command, status,
         offset, size, caplen, datalen) = _FIXED.unpack_from(raw)
        if magic != _MAGIC:
            raise BadRequest("bad magic %r" % magic)
        if version != _VERSION:
            raise BadRequest("unsupported message version %d" % version)
        if len(raw) != HEADER_BYTES + caplen + datalen:
            raise BadRequest("length mismatch: header says %d, frame is %d"
                             % (HEADER_BYTES + caplen + datalen, len(raw)))
        if type(raw) is not bytes:
            raw = bytes(raw)
        body = HEADER_BYTES + caplen
        capability = None
        sealed_caps = b""
        if flags & _FLAG_SEALED:
            sealed_caps = raw[HEADER_BYTES:body]
        elif caplen:
            capability = Capability.unpack(raw[HEADER_BYTES:body])
        extra_caps = ()
        pos = body
        if datalen:
            n_extra = raw[body]
            pos += 1
            if n_extra:
                end = body + datalen
                caps = []
                for _ in range(n_extra):
                    if pos + 2 > end:
                        raise BadRequest("truncated extra capability list")
                    clen = (raw[pos] << 8) | raw[pos + 1]
                    pos += 2
                    if pos + clen > end:
                        raise BadRequest("truncated extra capability")
                    caps.append(Capability.unpack(raw[pos:pos + clen]))
                    pos += clen
                extra_caps = tuple(caps)
        # The intern table read inline, ``from_wire`` only on a miss.  One
        # read of the global: a flush rebinds it, never empties this dict.
        interned = _ports._interned
        from_wire = Port.from_wire
        self = cls.__new__(cls)
        self.dest = interned[dest] if dest in interned else from_wire(dest)
        self.reply = interned[reply] if reply in interned else from_wire(reply)
        self.signature = (interned[signature] if signature in interned
                          else from_wire(signature))
        self.command = command
        self.status = status
        self.offset = offset
        self.size = size
        self.capability = capability
        self.data = raw[pos:]
        self.is_reply = True if flags & _FLAG_REPLY else False
        self.extra_caps = extra_caps
        self.sealed_caps = sealed_caps
        return self

    def _evolve(self, **changes):
        """A trusted shallow copy: ``copy()`` without re-validation, for
        internal paths (F-box egress, the reply cache, reply signing)
        whose replacement values are Ports or already-validated fields."""
        clone = object.__new__(type(self))
        clone.dest = self.dest
        clone.reply = self.reply
        clone.signature = self.signature
        clone.command = self.command
        clone.status = self.status
        clone.offset = self.offset
        clone.size = self.size
        clone.capability = self.capability
        clone.data = self.data
        clone.is_reply = self.is_reply
        clone.extra_caps = self.extra_caps
        clone.sealed_caps = self.sealed_caps
        if changes:
            unknown = changes.keys() - Message.__slots__
            if unknown:
                raise TypeError("unknown message field(s): %s"
                                % ", ".join(sorted(unknown)))
            for name, value in changes.items():
                setattr(clone, name, value)
        return clone

    def copy(self, **changes):
        """A (possibly modified) copy — the intruder toolkit's bread and
        butter.  Runs full validation, since the changes may be hostile."""
        return replace(self, **changes)

    def reply_to(self, data=b"", status=0, capability=None, offset=0, size=0,
                 extra_caps=(), signature=NULL_PORT, sealed_caps=b""):
        """Build a reply addressed to this request's reply port, echoing
        its command.

        The reply port in a received request is already the one-way image
        F(G'), i.e. a put-port the responder can use directly.  This is a
        trusted path: the request was validated on construction, so the
        reply's twelve slots are written straight down (an unwritten one
        would raise AttributeError on first read; ``tests/test_message.py``
        holds every one equal to what ``Message(...)`` builds).  The
        numeric parameters are where handler-supplied values enter it;
        they are guarded so a buggy handler gets a ValueError here
        (inside the dispatch loop's try) instead of a corrupt reply or a
        struct.error after it — one test for the all-defaults hot case.
        """
        if status or offset or size:
            if not 0 <= status < (1 << 16):
                raise ValueError("status %d outside u16" % status)
            if not 0 <= offset < (1 << 64):
                raise ValueError("offset %d outside u64" % offset)
            if not 0 <= size < (1 << 32):
                raise ValueError("size %d outside u32" % size)
        reply = Message.__new__(Message)
        reply.dest = self.reply
        reply.reply = NULL_PORT
        reply.signature = signature
        reply.command = self.command
        reply.status = status
        reply.offset = offset
        reply.size = size
        reply.capability = capability
        reply.data = data.encode("utf-8") if isinstance(data, str) else data
        reply.is_reply = True
        reply.extra_caps = extra_caps
        reply.sealed_caps = sealed_caps
        return reply

    def _addressed(self, dest, reply, signature=None):
        """A trusted copy of this request (validated on construction;
        every new value is a Port) addressed to ``dest`` with reply port
        ``reply`` and, unless None, ``signature``.  A transaction makes
        one per transmission: egress transforms the copy in place, so a
        re-sent copy would double-one-way its reply/signature fields."""
        request = object.__new__(type(self))
        request.dest = dest
        request.reply = reply
        request.signature = self.signature if signature is None else signature
        request.command = self.command
        request.status = self.status
        request.offset = self.offset
        request.size = self.size
        request.capability = self.capability
        request.data = self.data
        request.is_reply = False
        request.extra_caps = self.extra_caps
        request.sealed_caps = self.sealed_caps
        return request

    def __repr__(self):
        kind = "reply" if self.is_reply else "request"
        return "Message(%s, dest=%012x, cmd=%d, status=%d, %d data bytes)" % (
            kind,
            self.dest,
            self.command,
            self.status,
            len(self.data),
        )
