"""One table-mutation record: what the write-ahead log appends, what a
replica ships its peers, and what recovery and a peer apply (through
``ObjectTable.apply`` and its guard, :func:`repro.core.registry.admits`).

Byte forms, big-endian, each opening ``[1B op][3B object number]``:
entry (a create or a snapshot's row image) ``[4B generation][lifetime:
0xFF | 0x01 + 4B][secret][4B length][data]``; refresh ``[4B
generation][secret]``; destroy ``[4B generation]``; update ``[4B
length][data]``; delta: the rest, in the data codec's delta form.  A
secret is tagged (:func:`repro.util.record.pack_secret`).  Row data is
the data codec's business: :func:`pack` and :func:`unpack` take it, and
without one the data is raw bytes.
"""

import struct
from collections import namedtuple

from repro.util.record import Reader, pack_secret, unpack_secret

ENTRY, REFRESH, DESTROY, UPDATE = 1, 2, 3, 4
DELTA = 6  # 5 is the log's commit record, server state, not a table's

#: A record's first word, ``op << 24 | number`` — all a delta's head is.
HEAD = struct.Struct(">I")
_WORDS = struct.Struct(">II")  # the first word, then generation or length


Record = namedtuple("Record", "op number generation secret lifetime data",
                    defaults=(0, None, None, None))


def image(entry):
    """The entry record of a table row (an ``ObjectEntry``)."""
    return Record(ENTRY, entry.number, entry.generation, entry.secret,
                  entry.lifetime, entry.data)


def pack(record, codec=None):
    op, number, generation, secret, lifetime, data = record
    if number >> 24:
        raise ValueError("object numbers are 24 bits")
    word = op << 24 | number
    if op == DELTA:
        return HEAD.pack(word) + data
    if op in (REFRESH, DESTROY):
        head = _WORDS.pack(word, generation)
        return head if op == DESTROY else head + pack_secret(secret)
    raw = data if codec is None else codec.encode(data)
    if op == UPDATE:
        return _WORDS.pack(word, len(raw)) + raw
    if op != ENTRY:
        raise ValueError("unknown record op %d" % op)
    life = b"\xff" if lifetime is None else b"\x01" + HEAD.pack(lifetime)
    return b"".join((_WORDS.pack(word, generation), life, pack_secret(secret),
                     HEAD.pack(len(raw)), raw))


def unpack(payload, codec=None):
    """The record ``payload`` holds.  Any framing defect, trailing bytes
    included, is a ValueError; bad row data raises what the codec's
    ``decode`` raises."""
    reader = Reader(payload)
    word = reader.uint(4)
    op, number = word >> 24, word & 0xFFFFFF
    generation, secret, lifetime, data = 0, None, None, None
    if op == DELTA:
        data = bytes(reader.take(len(payload) - reader.pos))
    elif op == UPDATE:
        data = bytes(reader.take(reader.uint(4)))
    elif op not in (ENTRY, REFRESH, DESTROY):
        raise ValueError("unknown record op %d" % op)
    else:
        generation = reader.uint(4)
        if op == ENTRY:
            tag = reader.u8()
            if tag == 0x01:
                lifetime = reader.uint(4)
            elif tag != 0xFF:
                raise ValueError("bad lifetime tag")
        if op != DESTROY:
            secret = unpack_secret(reader)
        if op == ENTRY:
            data = bytes(reader.take(reader.uint(4)))
    reader.end()
    if codec is not None and op in (ENTRY, UPDATE):
        data = codec.decode(data)
    return Record(op, number, generation, secret, lifetime, data)
