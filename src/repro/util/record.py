"""One record cursor and one tagged secret, for every byte format here.

The table-mutation records (:mod:`repro.core.record`) and the replica
pool's membership payloads (:mod:`repro.ipc.replica`) are both small
big-endian records read front to back.  Every framing defect — short,
over-long, unknown tag — is a ``ValueError``, never an ``IndexError`` or
``struct.error``, so one ``except ValueError`` guards each boundary.
"""


class Reader:
    """Cursor over one record payload; raises ValueError when short."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def take(self, n):
        end = self.pos + n
        if end > len(self.buf):
            raise ValueError("record payload too short")
        out = self.buf[self.pos: end]
        self.pos = end
        return out

    def u8(self):
        return self.take(1)[0]

    def uint(self, n):
        return int.from_bytes(self.take(n), "big")

    def end(self):
        """The record must stop where its last field did."""
        if self.pos != len(self.buf):
            raise ValueError("trailing bytes after record")


def pack_secret(secret):
    """Secrets are ints (simple/XOR/commutative schemes) or bytes
    (encrypted scheme); tag so the reader restores the right type."""
    if isinstance(secret, bool) or not isinstance(
        secret, (int, bytes, bytearray)
    ):
        raise TypeError("cannot encode secret of type %s" % type(secret).__name__)
    if isinstance(secret, int):
        raw = secret.to_bytes((secret.bit_length() + 7) // 8 or 1, "big")
        tag = 0
    else:
        raw = bytes(secret)
        tag = 1
    return bytes([tag]) + len(raw).to_bytes(2, "big") + raw


def unpack_secret(reader):
    tag = reader.u8()
    raw = bytes(reader.take(reader.uint(2)))
    if tag == 0:
        return int.from_bytes(raw, "big")
    if tag == 1:
        return raw
    raise ValueError("unknown secret tag %d" % tag)
