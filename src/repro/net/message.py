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
  ``__post_init__`` range checks, because the values may come from a
  hostile or buggy caller;
* the **trusted** path — ``unpack``, ``reply_to``, the F-box egress copy
  — skips them.  For ``unpack`` this is sound because the fixed header is
  decoded with width-limited struct codes (``H``/``Q``/``I``) and the
  ports with exact-length interned wire decoding, so every field is in
  range by construction; for the others the source message was already
  validated when it was built.

``unpack`` is additionally **lazy**: it validates the *entire* frame
eagerly (magic, version, lengths, capability and extra-cap framing — all
arithmetic, no object construction) and decodes only the header fields;
the body — ``capability``, ``extra_caps``, ``data``, ``sealed_caps`` —
stays raw bytes until first touched.  A frame that is only routed,
screened, or replied to from its header never pays ``Capability.unpack``
or a payload copy.  Because validation is eager, every error a frame can
produce is raised by ``unpack`` itself; materialization cannot fail.
"""

import struct
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.capability import Capability, validate_packed_length
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

# The header splits at the destination port: everything up to and
# including ``dest`` (magic, version, flags, dest) is constant for every
# message a client sends to one service, while everything after it
# (reply, signature, command, ...) varies per transaction.  pack()
# therefore prebuilds the constant prefix once per (dest, flags) pair
# and reuses it for every later send to that destination.  The cache
# key is the destination port itself (an int: hashed and compared in
# C), so a repeat send never encodes ``dest`` at all.  The reply and
# signature fields, fresh per transaction, are encoded with the C-level
# ``int.to_bytes``; ``Port.to_bytes()`` is a Python wrapper around it.
_PREFIX = struct.Struct(">2sBB6s")
_TAIL = struct.Struct(">6s6sHHQIHI")
_PREFIX_BYTES = _PREFIX.size

# One template dict per flags value (flags is 2 bits); bounded so a
# client sweeping millions of distinct destinations cannot grow them
# without limit — on overflow the dict is dropped wholesale and warms
# back up (templates are 10-byte values; rebuilding one is one
# struct call).
_TEMPLATE_LIMIT = 1024
_TEMPLATES = tuple({} for _ in range(4))


@dataclass
class Message:
    """One request or reply message.

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

    def __post_init__(self):
        if not 0 <= self.command < (1 << 16):
            raise ValueError("command %d outside u16" % self.command)
        if not 0 <= self.status < (1 << 16):
            raise ValueError("status %d outside u16" % self.status)
        if not 0 <= self.offset < (1 << 64):
            raise ValueError("offset %d outside u64" % self.offset)
        if not 0 <= self.size < (1 << 32):
            raise ValueError("size %d outside u32" % self.size)
        if isinstance(self.data, str):
            self.data = self.data.encode("utf-8")

    def pack(self):
        """Serialise to wire bytes.

        The header is assembled from a per-destination *template*: the
        (magic, version, flags, dest) prefix is prebuilt once per
        destination and reused on every later send to the same port, so
        only the per-transaction tail is packed each time.  The frame is
        then a single ``bytes.join`` — measured faster than packing into
        a preallocated buffer, whose slice splices cost more than the
        joins they avoid.
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
        caplen = len(cap_bytes)
        data = self.data
        extra_caps = self.extra_caps
        dest = self.dest
        templates = _TEMPLATES[flags]
        prefix = templates.get(dest)
        if prefix is None:
            if len(templates) >= _TEMPLATE_LIMIT:
                templates.clear()
            prefix = templates[dest] = _PREFIX.pack(
                _MAGIC, _VERSION, flags, dest.to_bytes()
            )
        if extra_caps:
            packed_extras = [cap.pack() for cap in extra_caps]
            datalen = 1 + sum(len(c) + 2 for c in packed_extras) + len(data)
            body = [bytes((len(extra_caps),))]
            for packed in packed_extras:
                clen = len(packed)
                body.append(bytes((clen >> 8, clen & 0xFF)))
                body.append(packed)
            body.append(data)
            tail = _TAIL.pack(
                int.to_bytes(self.reply, PORT_BYTES, "big"),
                int.to_bytes(self.signature, PORT_BYTES, "big"),
                self.command, self.status, self.offset, self.size,
                caplen, datalen,
            )
            return b"".join((prefix, tail, cap_bytes, *body))
        tail = _TAIL.pack(
            int.to_bytes(self.reply, PORT_BYTES, "big"),
            int.to_bytes(self.signature, PORT_BYTES, "big"),
            self.command, self.status, self.offset, self.size,
            caplen, 1 + len(data),
        )
        return b"".join((prefix, tail, cap_bytes, b"\x00", data))

    @classmethod
    def unpack(cls, raw):
        """Parse wire bytes; raises :class:`BadRequest` on framing errors.

        Validation is eager — a malformed frame raises here, never later
        — but the body is decoded lazily: the returned message is a
        :class:`_WireMessage` whose ``capability`` / ``extra_caps`` /
        ``data`` / ``sealed_caps`` are materialized from the raw frame on
        first access.  Header fields (ports, command, status, offset,
        size, is_reply) are always decoded immediately, since routing and
        admission read them on every frame.
        """
        if len(raw) < HEADER_BYTES:
            raise BadRequest("message truncated at %d bytes" % len(raw))
        (
            magic,
            version,
            flags,
            dest,
            reply,
            signature,
            command,
            status,
            offset,
            size,
            caplen,
            datalen,
        ) = _FIXED.unpack_from(raw)
        if magic != _MAGIC:
            raise BadRequest("bad magic %r" % magic)
        if version != _VERSION:
            raise BadRequest("unsupported message version %d" % version)
        if len(raw) != HEADER_BYTES + caplen + datalen:
            raise BadRequest(
                "length mismatch: header says %d, frame is %d"
                % (HEADER_BYTES + caplen + datalen, len(raw))
            )
        if type(raw) is not bytes:
            raw = bytes(raw)
        if caplen and not flags & _FLAG_SEALED:
            validate_packed_length(raw, HEADER_BYTES, caplen)
        body = HEADER_BYTES + caplen
        if datalen:
            n_extra = raw[body]
            if n_extra:
                pos = body + 1
                end = body + datalen
                for _ in range(n_extra):
                    if pos + 2 > end:
                        raise BadRequest("truncated extra capability list")
                    clen = (raw[pos] << 8) | raw[pos + 1]
                    pos += 2
                    if pos + clen > end:
                        raise BadRequest("truncated extra capability")
                    validate_packed_length(raw, pos, clen)
                    pos += clen
        self = _WireMessage.__new__(_WireMessage)
        d = self.__dict__
        d["dest"] = Port.from_wire(dest)
        d["reply"] = Port.from_wire(reply)
        d["signature"] = Port.from_wire(signature)
        d["command"] = command
        d["status"] = status
        d["offset"] = offset
        d["size"] = size
        d["is_reply"] = True if flags & _FLAG_REPLY else False
        d["_wire"] = (raw, caplen, flags)
        return self

    # ------------------------------------------------------------------
    # trusted fast paths (see module docstring)
    # ------------------------------------------------------------------

    @classmethod
    def _trusted(
        cls,
        dest=NULL_PORT,
        reply=NULL_PORT,
        signature=NULL_PORT,
        command=0,
        status=0,
        offset=0,
        size=0,
        capability=None,
        data=b"",
        is_reply=False,
        extra_caps=(),
        sealed_caps=b"",
    ):
        """Build a message without the ``__post_init__`` range checks.

        Callers must guarantee every field is already in range (wire
        decoding does so structurally; other callers start from a
        validated message).
        """
        self = cls.__new__(cls)
        d = self.__dict__
        d["dest"] = dest
        d["reply"] = reply
        d["signature"] = signature
        d["command"] = command
        d["status"] = status
        d["offset"] = offset
        d["size"] = size
        d["capability"] = capability
        d["data"] = data
        d["is_reply"] = is_reply
        d["extra_caps"] = extra_caps
        d["sealed_caps"] = sealed_caps
        return self

    def _evolve(self, **changes):
        """A trusted shallow copy: ``copy()`` without re-validation.

        For internal paths (F-box egress, ``trans``, reply signing) whose
        replacement values are Ports or already-validated fields.
        """
        clone = self.__class__.__new__(self.__class__)
        clone.__dict__ = merged = self.__dict__ | changes
        if len(merged) != len(self.__dict__):
            # A stray key grew the dict: some change is not a field.
            raise TypeError(
                "unknown message field(s): %s"
                % ", ".join(sorted(set(changes) - set(self.__dict__)))
            )
        return clone

    def copy(self, **changes):
        """A (possibly modified) copy — the intruder toolkit's bread and
        butter.  Runs full validation, since the changes may be hostile."""
        return replace(self, **changes)

    def reply_to(self, **changes):
        """Build a reply template addressed to this request's reply port.

        The reply port in a received request is already the one-way image
        F(G'), i.e. a put-port the responder can use directly.  This is a
        trusted path: the request was validated on construction and the
        changes come from server code, so only the cheap str coercion of
        ``data`` is kept.
        """
        # _REPLY_DEFAULTS is snapshotted from a real default Message at
        # import time, so a field added to the dataclass later is
        # automatically present here with its declared default.
        fields = dict(_REPLY_DEFAULTS)
        fields["dest"] = self.reply
        fields["command"] = self.command
        if changes:
            fields.update(changes)
            if len(fields) != len(_REPLY_DEFAULTS):
                # A stray key grew the dict: a typo'd kwarg, which the
                # old Message(**fields) path would have rejected too.
                raise TypeError(
                    "unknown message field(s): %s"
                    % ", ".join(sorted(set(changes) - set(_REPLY_DEFAULTS)))
                )
            # The numeric fields are the one place handler-supplied values
            # enter this trusted path; guard them so a buggy handler gets
            # a ValueError here (inside the dispatch loop's try) instead
            # of a corrupt reply or a struct.error after it.  All three
            # checks are skipped in the all-defaults hot case.
            command = fields["command"]
            if command and not 0 <= command < (1 << 16):
                raise ValueError("command %d outside u16" % command)
            status = fields["status"]
            if status and not 0 <= status < (1 << 16):
                raise ValueError("status %d outside u16" % status)
            offset = fields["offset"]
            if offset and not 0 <= offset < (1 << 64):
                raise ValueError("offset %d outside u64" % offset)
            size = fields["size"]
            if size and not 0 <= size < (1 << 32):
                raise ValueError("size %d outside u32" % size)
            data = fields["data"]
            if isinstance(data, str):
                fields["data"] = data.encode("utf-8")
        reply = Message.__new__(Message)
        reply.__dict__ = fields
        return reply

    def __eq__(self, other):
        # Field-by-field instead of the dataclass-generated version so a
        # lazily-decoded _WireMessage compares equal to the plain Message
        # it encodes (dataclass __eq__ requires identical classes).
        if not isinstance(other, Message):
            return NotImplemented
        return (
            self.dest == other.dest
            and self.reply == other.reply
            and self.signature == other.signature
            and self.command == other.command
            and self.status == other.status
            and self.offset == other.offset
            and self.size == other.size
            and self.is_reply == other.is_reply
            and self.data == other.data
            and self.capability == other.capability
            and self.extra_caps == other.extra_caps
            and self.sealed_caps == other.sealed_caps
        )

    __hash__ = None  # mutable, like every dataclass with eq and no frozen

    def __repr__(self):
        kind = "reply" if self.is_reply else "request"
        return "Message(%s, dest=%012x, cmd=%d, status=%d, %d data bytes)" % (
            kind,
            self.dest,
            self.command,
            self.status,
            len(self.data),
        )


class _LazyBody:
    """Non-data descriptor for one lazily-decoded body field.

    First access materializes the whole body (all four fields at once —
    they share one parse of the raw frame) into the instance ``__dict__``,
    which then shadows the descriptor, so every later read is a plain
    attribute hit.  Being a non-data descriptor also means assignment
    (``message.data = ...``) just writes the instance dict, exactly like
    a plain Message.
    """

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        obj._materialize_body()
        return obj.__dict__[self.name]


class _WireMessage(Message):
    """A message decoded from the wire with its body still in raw bytes.

    Built only by :meth:`Message.unpack`, which has already validated the
    complete frame — so materialization below is straight-line decoding
    that cannot raise.  ``_wire`` in the instance dict holds
    ``(raw_frame, caplen, flags)`` until the first body access.  The
    in-range guarantee of the trusted constructor holds unchanged: every
    field comes from a width-limited slice of the validated frame.
    """

    capability = _LazyBody("capability")
    extra_caps = _LazyBody("extra_caps")
    data = _LazyBody("data")
    sealed_caps = _LazyBody("sealed_caps")

    def _materialize_body(self):
        # Fields already in the instance dict are *writes* (assignment on
        # a still-lazy message lands there, shadowing the descriptor) and
        # must win over the frame's decoded values.
        d = self.__dict__
        wire = d.get("_wire")
        if wire is None:
            return
        raw, caplen, flags = wire
        body = HEADER_BYTES + caplen
        if flags & _FLAG_SEALED:
            d.setdefault("sealed_caps", raw[HEADER_BYTES:body])
            d.setdefault("capability", None)
        else:
            d.setdefault("sealed_caps", b"")
            if "capability" not in d:
                d["capability"] = (
                    Capability.unpack(raw[HEADER_BYTES:body]) if caplen else None
                )
        if len(raw) == body:
            d.setdefault("extra_caps", ())
            d.setdefault("data", b"")
        else:
            n_extra = raw[body]
            pos = body + 1
            if n_extra:
                caps = [] if "extra_caps" not in d else None
                for _ in range(n_extra):
                    clen = (raw[pos] << 8) | raw[pos + 1]
                    pos += 2
                    if caps is not None:
                        caps.append(Capability.unpack(raw[pos:pos + clen]))
                    pos += clen
                if caps is not None:
                    d["extra_caps"] = tuple(caps)
            else:
                d.setdefault("extra_caps", ())
            d.setdefault("data", raw[pos:])
        d.pop("_wire", None)

    def _evolve(self, **changes):
        # The base _evolve merges into __dict__ and treats any key growth
        # as a typo'd field; a still-lazy body field is absent from the
        # dict, so materialize first when a change names one.  Changes
        # confined to header fields (the F-box, trans) stay lazy, and the
        # clone shares the immutable raw frame.
        if changes and not changes.keys() <= self.__dict__.keys():
            self._materialize_body()
        return super()._evolve(**changes)


#: The canonical field defaults for a reply template (see reply_to),
#: taken from an actual default-constructed Message so the set of fields
#: can never drift from the dataclass definition.
_REPLY_DEFAULTS = dict(Message().__dict__)
_REPLY_DEFAULTS["is_reply"] = True
