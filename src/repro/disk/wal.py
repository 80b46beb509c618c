"""Write-ahead logging and reboot recovery for object tables.

Every server's :class:`~repro.core.registry.ObjectTable` dies with its
process; this module gives it a disk life.  There is **one append-only
log**: ``create`` / ``refresh`` / ``destroy`` append under the table
lock the operation already holds, so log order is mutation order.
Periodic snapshots bound the log's length — a snapshot encodes the
table's rows and captures the log's *replay position* under one hold of
the table lock, commits the new superblock, and only then frees the log
blocks before that position (every block write happens outside the
hold).  Nothing acked is ever lost by truncation.

On-disk layout (over a :class:`~repro.disk.virtualdisk.VirtualDisk`):

* **Superblock** — dual slots at blocks 0 and 1, written alternately
  with a monotonically increasing epoch and a CRC; the highest *valid*
  epoch wins at attach, so a torn superblock write simply loses to the
  previous commit.  It records the snapshot chain head, the log chain
  head, the replay offset within that head block, and the table's
  *high-water mark* — one past the highest object number ever issued,
  so a reboot never re-issues a dead object's number from scratch.
* **Block chains** — the snapshot and the log are each a singly linked
  chain: ``[4B next | 0xFFFFFFFF][2B used][2B header crc]`` then
  payload.  Records span block boundaries, so block size never bounds
  record size.
* **Records** — ``[1B magic 0xA5][4B length][4B crc32]`` + payload.
  The CRC is what detects a *torn* tail; a whole lost block at the tail
  is deliberately undetectable (the log is shorter but clean) and
  recovery then yields a consistent-but-older state — clients holding
  capabilities for the lost objects get ``NoSuchObject`` and re-create
  through the retry + re-locate path.

Flush rule: a record always enters the log's tail block under the table
lock, and that block is written before the append returns — except
while the appending thread is inside an ``ObjectServer`` dispatch
(:meth:`DurableStore.begin` / :meth:`~DurableStore.end`).  There the
bytes wait in the tail buffer and reach the medium in *one* block write
when the transaction's commit record is logged
(:meth:`DurableStore.log_commit`) or, with no commit to log, at
:meth:`DurableStore.flush` — in every case before the reply leaves, so
acked still implies flushed, and the commit can never reach the medium
ahead of a mutation it vouches for: they are one stream, in append
order.  A flush that spills past the tail block writes the new blocks
first and the old tail — whose forward pointer is what makes them
reachable — *last* (:meth:`ChainLog._flush_tail`), so a power failure
leaves the whole group on the medium or none of it, never a torn tail.
A mutation costs what it changed: a server that can describe its change
logs a small ``OP_DELTA`` record instead of the whole row image.

Recovery (:meth:`DurableStore.recover`, driven by
``ObjectServer.reboot()``) replays snapshot + log.  A *suspect* medium
(bad magic, bad CRC, truncated record, broken chain — what a torn
sector leaves, never a plain power failure) keeps its parsed prefix but
has every secret regenerated and every generation bumped — exactly the
paper's revocation move: when the server cannot prove its table wasn't
tampered with, it re-keys, old capabilities fail §2.2 check validation,
and clients refresh.  Commit records (server-side dedup state, see
``ObjectServer``) are replayed only from a clean log; after a suspect
one the transactions re-execute, which is coherent because their
effects are exactly what the torn tail lost.
"""

import struct
import threading
import zlib

from repro.core.registry import ObjectEntry
from repro.crypto.randomsrc import RandomSource
from repro.disk.virtualdisk import VirtualDisk
from repro.errors import DiskFault, MalformedCapability, OutOfSpace
from repro.util.record import Reader, pack_secret, unpack_secret

__all__ = ["DurableStore", "ChainLog", "RecoveryReport", "DefaultCodec"]

#: "No block" sentinel in chain next-pointers and snapshot heads.
NO_BLOCK = 0xFFFFFFFF

# Chain block header: next block, used payload bytes, and a 16-bit CRC
# over those six bytes.  The header CRC is what keeps a *torn* header
# from being believed: without it a garbage ``next`` could walk a scan
# into the other chain's live blocks — and tail truncation would then
# free blocks it does not own.
_CHAIN_HEADER = struct.Struct(">IHH")
_CHAIN_LINK = struct.Struct(">IH")  # the six bytes the header CRC covers
_RECORD_HEAD = struct.Struct(">BII")  # magic, payload length, crc32
_RECORD_MAGIC = 0xA5

_SB_SLOTS = (0, 1)
_SB_MAGIC = b"AWAL"
_SB_VERSION = 2  # 1 had a record per stripe and no high-water mark
# magic, version, chain count (always 1), epoch, crc; then snapshot
# head, log head, replay offset, high-water mark.
_SB = struct.Struct(">4sBBQIIIII")

# Record operation tags.
OP_ENTRY = 1  # full row image: create *and* snapshot records
OP_REFRESH = 2
OP_DESTROY = 3
OP_UPDATE = 4  # re-logged row payload (a durable server mutated data)
OP_COMMIT = 5  # completed transaction: (src, reply port, packed reply)
OP_DELTA = 6  # a change to a row payload, in the codec's delta form

# Payload heads.  Row records open ``[1B op][3B object number]`` (one
# big-endian word); a commit's 48-bit reply port packs as 16 + 32 bits.
_ROW_HEAD = struct.Struct(">I")
_UPDATE_HEAD = struct.Struct(">II")  # op | number, data length
_COMMIT_HEAD = struct.Struct(">BQHII")  # op, src, reply port, reply length


def _pack_chain_header(buf, nxt, used):
    hcrc = zlib.crc32(_CHAIN_LINK.pack(nxt, used)) & 0xFFFF
    _CHAIN_HEADER.pack_into(buf, 0, nxt, used, hcrc)


def _parse_chain_header(raw):
    """Returns ``(next, used, header_ok)``."""
    nxt, used, hcrc = _CHAIN_HEADER.unpack_from(raw)
    ok = (zlib.crc32(raw[:6]) & 0xFFFF) == hcrc
    return nxt, used, ok


def _free_chain(disk, head, stop=NO_BLOCK):
    """Free a chain's blocks from ``head`` up to (excluding) ``stop``.

    Stops (leaking, for the attach-time reclaimer) rather than freeing
    through a block whose header does not verify.
    """
    block_no = head
    while block_no != stop and block_no != NO_BLOCK:
        nxt, _, ok = _parse_chain_header(disk.read(block_no))
        disk.free(block_no)
        if not ok:
            break
        block_no = nxt


class ChainLog:
    """One append-only record stream over a chain of disk blocks.

    Appends are buffered per tail block; :meth:`flush` writes that block
    whole, and a record that overflows it additionally costs one write
    of each full block left behind.  :meth:`append` flushes before it
    returns unless told not to — the caller then owes the :meth:`flush`
    (see the module docstring's flush rule).  The internal lock orders
    appends and flushes against concurrent :meth:`tail_position` /
    :meth:`truncate_front`; callers in the object table already hold
    the table lock, which is what makes the position capture in a
    snapshot exact.
    """

    def __init__(self, disk, head=None, tail=None, tail_used=0):
        self.disk = disk
        self.lock = threading.Lock()
        self.capacity = disk.block_size - _CHAIN_HEADER.size
        if self.capacity < 1:
            raise ValueError("block size too small for chain blocks")
        self.records_appended = 0
        # True while the tail buffer holds bytes the medium does not.
        self._unflushed = False
        # Full blocks rolled out of since the last flush, oldest first,
        # as (block, image) — the first is the block the medium still
        # holds as the tail.
        self._spilled = []
        if head is None:
            self.head = self.tail = disk.allocate()
            self.tail_used = 0
            self._tail_buf = bytearray(disk.block_size)
            self._flush_tail()  # an unwritten head must not scan as torn
        else:
            self.head = head
            self.tail = tail
            self.tail_used = tail_used
            self._tail_buf = bytearray(disk.read(tail))

    def append(self, payload, flush=True):
        """Append one record (framed, CRC-protected); on the medium when
        this returns unless ``flush`` is false."""
        if not payload:
            raise ValueError("cannot append an empty record")
        length = len(payload)
        crc = zlib.crc32(payload)
        size = _RECORD_HEAD.size + length
        with self.lock:
            used = self.tail_used
            if size <= self.capacity - used:
                # The common case, framed where it lands: no record is
                # built only to be copied into the block.
                start = _CHAIN_HEADER.size + used
                buf = self._tail_buf
                _RECORD_HEAD.pack_into(buf, start, _RECORD_MAGIC, length, crc)
                buf[start + _RECORD_HEAD.size:start + size] = payload
                self.tail_used = used + size
            else:
                # Every block the spill needs is allocated before the tail
                # is touched, so a full disk refuses the append whole.
                blocks = []
                try:
                    for _ in range((used + size - 1) // self.capacity):
                        blocks.append(self.disk.allocate())
                except OutOfSpace:
                    for block_no in reversed(blocks):
                        self.disk.free(block_no)
                    raise
                record = _RECORD_HEAD.pack(_RECORD_MAGIC, length, crc) + payload
                buf, tail = self._tail_buf, self.tail
                for new in blocks:
                    # Fill the block (with nothing, if it is full) and set
                    # it aside, forward pointer and all, for _flush_tail.
                    space = self.capacity - used
                    buf[_CHAIN_HEADER.size + used:] = record[:space]
                    record = record[space:]
                    _pack_chain_header(buf, new, self.capacity)
                    self._spilled.append((tail, bytes(buf)))
                    buf, tail, used = bytearray(self.disk.block_size), new, 0
                buf[_CHAIN_HEADER.size:_CHAIN_HEADER.size + len(record)] = record
                self._tail_buf, self.tail, self.tail_used = buf, tail, len(record)
            self.records_appended += 1
            self._unflushed = True
            if flush:
                self._flush_tail()

    def flush(self):
        """Write the tail block if it holds unflushed bytes (whoever
        appended them).  The first test takes no lock, so a reply that
        logged nothing (a LOOKUP's) pays none: a handler mutates
        ``entry.data`` *before* it appends, so an unlocked False hides
        nothing a locked read would have shown."""
        if self._unflushed:
            with self.lock:
                if self._unflushed:
                    self._flush_tail()

    def _flush_tail(self):
        """Write the tail block, then any blocks spilled out of since
        the last flush, newest first — so the one the medium already
        holds as the tail, whose new forward pointer is what links the
        rest in, goes *last*.  Power failing between any two of these
        writes leaves the previous clean chain plus unreachable blocks
        (the attach-time reclaimer frees them): the group lands whole or
        not at all."""
        buf = self._tail_buf
        used = self.tail_used
        _CHAIN_HEADER.pack_into(
            buf, 0, NO_BLOCK, used,
            zlib.crc32(_CHAIN_LINK.pack(NO_BLOCK, used)) & 0xFFFF,
        )
        self.disk.write(self.tail, bytes(buf))
        spilled = self._spilled
        if spilled:
            for block_no, image in reversed(spilled):
                self.disk.write(block_no, image)
            del spilled[:]
        self._unflushed = False

    def tail_position(self):
        """The current append position ``(block, payload offset)`` — the
        replay position a snapshot records.  Flushes first: a recorded
        position must never lie beyond what is on the medium."""
        with self.lock:
            if self._unflushed:
                self._flush_tail()
            return (self.tail, self.tail_used)

    def repair_tail(self):
        """Rewrite the tail block as this log holds it — the clean
        prefix a torn-tail scan cut it down to, no forward pointer — so
        the next scan and future appends agree on where the log ends."""
        with self.lock:
            self._flush_tail()

    def truncate_front(self, new_head):
        """Free every chain block before ``new_head`` (a snapshot just
        made them redundant)."""
        with self.lock:
            old_head, self.head = self.head, new_head
        _free_chain(self.disk, old_head, stop=new_head)


class _ChainScan:
    """What reading one chain back yields."""

    __slots__ = ("records", "suspect", "chain", "cut_index", "cut_offset")

    def __init__(self):
        self.records = []
        self.suspect = False
        self.chain = []  # (block_no, used, payload[:used])
        self.cut_index = 0
        self.cut_offset = 0

    @property
    def kept_blocks(self):
        if self.suspect:
            return [b[0] for b in self.chain[: self.cut_index + 1]]
        return [b[0] for b in self.chain]


def _scan_chain(disk, head, start_offset=0):
    """Parse a chain's records; tolerant of every torn-tail shape.

    Any structural damage — unparsable pointer, clamped ``used``, bad
    record magic, CRC mismatch, record running past the stream — marks
    the scan *suspect* and computes the cut: the (block index, payload
    offset) where the clean record prefix ends.
    """
    scan = _ChainScan()
    capacity = disk.block_size - _CHAIN_HEADER.size
    block_no = head
    seen = set()
    while True:
        if block_no in seen or not (len(_SB_SLOTS) <= block_no < disk.n_blocks):
            scan.suspect = True
            break
        seen.add(block_no)
        raw = disk.read(block_no)
        nxt, used, header_ok = _parse_chain_header(raw)
        torn_header = not header_ok or used > capacity
        if torn_header:
            # A torn header's fields are garbage: believe neither the
            # forward pointer nor ``used`` — salvage what the record
            # CRCs can prove from the full payload area, follow nothing.
            used = capacity
            scan.suspect = True
        payload = raw[_CHAIN_HEADER.size: _CHAIN_HEADER.size + used]
        scan.chain.append((block_no, used, payload))
        if torn_header or nxt == NO_BLOCK:
            break
        block_no = nxt
    if not scan.chain:
        return scan  # head pointer itself unusable
    # Assemble the record stream and remember where each block's
    # contribution starts, to map the cut back to a block offset.
    stream = bytearray()
    starts = []
    for i, (_, _, payload) in enumerate(scan.chain):
        starts.append(len(stream))
        skip = start_offset if i == 0 else 0
        stream.extend(payload[skip:])
    pos = 0
    total = len(stream)
    while pos < total:
        if total - pos < _RECORD_HEAD.size:
            scan.suspect = True
            break
        magic, length, crc = _RECORD_HEAD.unpack_from(stream, pos)
        body = pos + _RECORD_HEAD.size
        # append() refuses empty records, so a zero length is damage: a
        # head straddling two blocks whose second was lost by the device
        # reads as magic + zeros, which would otherwise CRC-check as
        # "empty".
        if magic != _RECORD_MAGIC or not length or total - body < length:
            scan.suspect = True
            break
        payload = bytes(stream[body: body + length])
        if zlib.crc32(payload) != crc:
            scan.suspect = True
            break
        scan.records.append(payload)
        pos = body + length
    # Cut: the latest block whose contribution starts at or before the
    # clean prefix's end.
    cut_index = 0
    for i, start in enumerate(starts):
        if start <= pos:
            cut_index = i
    scan.cut_index = cut_index
    scan.cut_offset = (pos - starts[cut_index]) + (
        start_offset if cut_index == 0 else 0
    )
    return scan


class DefaultCodec:
    """Data codec for the common primitive payloads.

    Servers storing richer objects supply their own codec (see
    ``DirectoryCodec`` in :mod:`repro.servers.directory`) — the store
    never pickles, so what lands on disk is an explicit, versionable
    format.
    """

    def encode(self, data):
        if data is None:
            return b"\x00"
        if isinstance(data, (bytes, bytearray)):
            return b"\x01" + bytes(data)
        if isinstance(data, str):
            return b"\x02" + data.encode("utf-8")
        if isinstance(data, bool):
            return b"\x04" + (b"\x01" if data else b"\x00")
        if isinstance(data, int):
            return b"\x03" + str(data).encode("ascii")
        raise TypeError(
            "DefaultCodec cannot encode %s; give the DurableStore a codec"
            % type(data).__name__
        )

    def decode(self, raw):
        if not raw:
            raise ValueError("empty data payload")
        tag, body = raw[0], raw[1:]
        if tag == 0:
            return None
        if tag == 1:
            return bytes(body)
        if tag == 2:
            return body.decode("utf-8")
        if tag == 3:
            return int(body.decode("ascii"))
        if tag == 4:
            return body == b"\x01"
        raise ValueError("unknown data tag %d" % tag)

    def apply_delta(self, data, raw):
        """Primitive payloads are re-logged whole; a delta record in
        their log is a codec mismatch (recovery re-keys the table)."""
        raise ValueError("DefaultCodec payloads have no delta form")


class RecoveryReport:
    """What one :meth:`DurableStore.recover` pass found and rebuilt."""

    def __init__(self):
        self.entries_restored = 0
        self.records_replayed = 0
        #: The medium could not be trusted (see the module docstring):
        #: every restored secret was regenerated, every commit dropped.
        self.suspect = False
        self.secrets_regenerated = 0
        #: One past the highest object number the medium has ever seen
        #: issued; the table's fresh numbers resume from here.
        self.high_water = 0
        #: (src, reply port value) -> packed reply bytes, from a clean
        #: log only; ``ObjectServer.reboot()`` seeds its ReplyCache
        #: from these so retries straddling the crash replay instead of
        #: re-executing.
        self.commits = {}
        self.blocks_reclaimed = 0
        #: Recovered commits ``ObjectServer.reboot()`` could not turn
        #: back into a reply (their retries re-execute), and the last
        #: such error.
        self.commits_unreplayable = 0
        self.commit_error = None


class _ThreadState(threading.local):
    """What one thread owes the store (``__init__`` runs per thread)."""

    def __init__(self):
        # One "logged a mutation" flag per ObjectServer dispatch this
        # thread is inside, innermost last: a handler that transacts
        # into another server on the same store nests them.
        self.open = []


class DurableStore:
    """Write-ahead log + snapshots for one object table, on one disk.

    Constructing on a blank disk *formats* it (reserving the two
    superblock slots); constructing on a disk that carries a valid
    superblock *attaches*, scanning both chains and holding the parsed
    state until :meth:`recover` replays it into a table — until then
    ``needs_recovery`` is True and ``ObjectServer.start()`` refuses to
    serve, so un-recovered state can never be silently overwritten.

    Concurrency contract: the table calls ``log_*`` under its lock (that
    ordering is what makes the snapshot position exact);
    :meth:`snapshot` takes the same lock once, via
    ``ObjectTable.locked``, to encode the rows, and writes outside it.

    Flush contract: outside :meth:`begin` / :meth:`end` every ``log_*``
    is on the medium when it returns.  Between them (one request's
    dispatch, on the dispatching thread) records only enter the tail
    block; :meth:`log_commit` or :meth:`flush` then writes it once, and
    the server calls one of them before any reply.
    """

    def __init__(self, disk=None, codec=None):
        self.disk = disk if disk is not None else VirtualDisk(4096)
        self.codec = codec if codec is not None else DefaultCodec()
        self._lock = threading.Lock()  # serializes snapshot + superblock
        self._thread = _ThreadState()
        self.snapshots_taken = 0
        self.blocks_reclaimed = 0
        self._pending = None
        if any(self.disk.is_written(slot) for slot in _SB_SLOTS):
            self._attach()
        else:
            self._format()

    # ------------------------------------------------------------------
    # format / attach
    # ------------------------------------------------------------------

    def _format(self):
        # Two superblock slots, the log's head block, and at least one
        # block of room for a snapshot chain.
        if self.disk.n_blocks < len(_SB_SLOTS) + 2:
            raise ValueError(
                "disk too small: a store needs at least %d blocks"
                % (len(_SB_SLOTS) + 2)
            )
        for slot in _SB_SLOTS:
            self.disk.reserve(slot)
        self.epoch = 0
        self._log = ChainLog(self.disk)
        self._snapshot = NO_BLOCK
        self._position = (self._log.head, 0)
        self._high_water = 0
        self.needs_recovery = False
        self._commit_superblock()

    def _attach(self):
        valid = list(filter(None, map(self._read_superblock, _SB_SLOTS)))
        if not valid:
            raise DiskFault("no valid superblock on this disk")
        # The highest epoch wins (tuples compare epoch first).
        (self.epoch, snap_head, log_head, log_offset,
         self._high_water) = max(valid)
        reachable = set(_SB_SLOTS)
        suspect = False
        records = []
        if snap_head != NO_BLOCK:
            snap_scan = _scan_chain(self.disk, snap_head)
            records = snap_scan.records
            suspect = snap_scan.suspect
            # The whole chain, damaged part included: the next
            # checkpoint frees it by walking these same headers.
            reachable.update(block[0] for block in snap_scan.chain)
        scan = _scan_chain(self.disk, log_head, log_offset)
        suspect |= scan.suspect
        reachable.update(scan.kept_blocks)
        if scan.chain:
            tail_no, tail_used, _ = scan.chain[scan.cut_index]
            if scan.suspect:
                tail_used = scan.cut_offset
            self._log = ChainLog(
                self.disk, head=log_head, tail=tail_no, tail_used=tail_used
            )
        else:
            # The head block itself was unusable: start a fresh log.
            self._log = ChainLog(self.disk)
            log_head = self._log.head
            log_offset = 0
            reachable.add(log_head)
        self._snapshot = snap_head
        self._position = (log_head, log_offset)
        # A power failure can leave blocks allocated but linked into
        # nothing the superblock knows — a half-written snapshot, a
        # flush group whose linking write never happened; reclaim them.
        leaked = self.disk.allocated_blocks() - reachable
        for block_no in sorted(leaked):
            self.disk.free(block_no)
        self.blocks_reclaimed = len(leaked)
        self._pending = (records + scan.records, suspect)
        self.needs_recovery = True

    def _read_superblock(self, slot):
        """``(epoch, snapshot head, log head, replay offset, high-water
        mark)``, or None for a slot that is not a superblock this store
        can read — which includes one that counts other than one chain
        (an older format's disk; attach then refuses with DiskFault)."""
        try:
            magic, version, count, epoch, crc, *state = _SB.unpack_from(
                self.disk.read(slot)
            )
        except struct.error:
            return None
        if (magic, version, count) != (_SB_MAGIC, _SB_VERSION, 1):
            return None
        raw = _SB.pack(magic, version, count, epoch, 0, *state)
        if zlib.crc32(raw) != crc:
            return None
        return (epoch, *state)

    def _commit_superblock(self):
        self.epoch += 1
        head = (_SB_MAGIC, _SB_VERSION, 1, self.epoch)
        state = (self._snapshot, *self._position, self._high_water)
        crc = zlib.crc32(_SB.pack(*head, 0, *state))
        self.disk.write(
            _SB_SLOTS[self.epoch % 2], _SB.pack(*head, crc, *state)
        )

    # ------------------------------------------------------------------
    # record payloads
    # ------------------------------------------------------------------

    def _entry_payload(self, entry):
        data_raw = self.codec.encode(entry.data)
        parts = [
            bytes([OP_ENTRY]),
            entry.number.to_bytes(3, "big"),
            entry.generation.to_bytes(4, "big"),
        ]
        if entry.lifetime is None:
            parts.append(b"\xff")
        else:
            parts.append(b"\x01" + int(entry.lifetime).to_bytes(4, "big"))
        parts.append(pack_secret(entry.secret))
        parts.append(len(data_raw).to_bytes(4, "big"))
        parts.append(data_raw)
        return b"".join(parts)

    # ------------------------------------------------------------------
    # logging (callers hold the table lock)
    # ------------------------------------------------------------------

    def _append(self, payload):
        """The one append path for table mutations.  The dispatch is
        marked as having written only once the log has taken the record:
        a record the log refuses (``OutOfSpace``) must not earn its
        error reply a commit record."""
        open_dispatches = self._thread.open
        self._log.append(payload, not open_dispatches)
        if open_dispatches:
            open_dispatches[-1] = True

    def log_create(self, entry):
        self._append(self._entry_payload(entry))

    def log_update(self, number, data, delta=None):
        """Log a row's new payload: the full image, or — when the caller
        can describe the change in the codec's delta form — just the
        ``delta`` bytes (``[1B OP_DELTA][3B number]`` + delta, replayed
        through ``codec.apply_delta``)."""
        if delta is not None:
            record = _ROW_HEAD.pack(OP_DELTA << 24 | number) + delta
        else:
            data_raw = self.codec.encode(data)
            record = (
                _UPDATE_HEAD.pack(OP_UPDATE << 24 | number, len(data_raw))
                + data_raw
            )
        self._append(record)

    def log_refresh(self, number, secret, generation):
        self._append(
            bytes([OP_REFRESH])
            + number.to_bytes(3, "big")
            + generation.to_bytes(4, "big")
            + pack_secret(secret)
        )

    def log_destroy(self, number):
        self._append(_ROW_HEAD.pack(OP_DESTROY << 24 | number))

    def log_commit(self, src, reply_value, reply_raw):
        """Log a transaction's commit record and end its deferral: the
        commit joins whatever the log holds unflushed — the mutations it
        vouches for, appended before it — and all of it is written now,
        in the one block write they share."""
        self._log.append(
            _COMMIT_HEAD.pack(
                OP_COMMIT, src, reply_value >> 32, reply_value & 0xFFFFFFFF,
                len(reply_raw),
            ) + reply_raw
        )

    # ------------------------------------------------------------------
    # the dispatch scope (ObjectServer brackets each handler with it)
    # ------------------------------------------------------------------

    def begin(self):
        """This thread enters a request dispatch: its appends now wait
        in the tail block for :meth:`log_commit` / :meth:`flush`."""
        self._thread.open.append(False)

    def end(self):
        """Leave the dispatch entered by :meth:`begin` (nesting counts);
        returns True when it logged a mutation.  The server logs commit
        records only for those — a pure read or echo is idempotent, safe
        to re-execute after a reboot, and pays no WAL write — and the
        flag is that one dispatch's: the caller hands it to its own
        reply path, so a nested request's reply cannot take (and lose)
        what the handler around it wrote before calling out.
        Flushes nothing: whatever is pending stays owed to the medium
        until the reply path's :meth:`log_commit` or :meth:`flush`."""
        return self._thread.open.pop()

    def flush(self):
        """Write whatever the log holds unflushed."""
        self._log.flush()

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def snapshot(self, table):
        """Checkpoint the table and truncate the log.

        The row encodings, the table's high-water mark and the log's
        replay position are captured under a single hold of the table
        lock, so every record before the position is provably redundant
        with the snapshot; every block write happens after the hold is
        released.  The position only becomes authoritative when the
        superblock commits, and the old blocks are freed strictly after
        that — a power failure at any instant leaves either the old
        complete state or the new complete state.
        """
        if self.needs_recovery:
            raise RuntimeError(
                "the store holds un-recovered state; a snapshot now "
                "would truncate a log that was never replayed — call "
                "recover() first"
            )
        def grab(entries):
            payloads = [self._entry_payload(e) for e in entries.values()]
            return payloads, table.high_water, self._log.tail_position()

        with self._lock:
            payloads, high_water, position = table.locked(grab)
            new_head = NO_BLOCK
            if payloads:
                snap = ChainLog(self.disk)
                for payload in payloads:
                    snap.append(payload)
                new_head = snap.head
            old_snap, self._snapshot = self._snapshot, new_head
            self._position = position
            self._high_water = high_water
            self._commit_superblock()
            if old_snap != NO_BLOCK:
                _free_chain(self.disk, old_snap)
            self._log.truncate_front(position[0])
            self.snapshots_taken += 1

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def recover(self, table, rng=None):
        """Replay the attached state into an (empty) object table.

        Returns a :class:`RecoveryReport`.  A suspect medium keeps its
        parsed record prefix but every restored entry gets a fresh
        secret and a bumped generation — outstanding capabilities fail
        check validation and must be refreshed, the conservative end of
        the paper's revocation policy.  The table is then checkpointed
        before this returns, so the re-keying and the dropped commits
        stay that way across the *next* crash too; only after that is
        the torn tail cut off on the medium — a log that scans clean
        while the old secrets are still the durable ones would quietly
        undo the revocation.

        The table's high-water mark resumes from the highest the medium
        vouches for — the last checkpoint's, raised by every row image
        replayed since — so a number whose object died before the crash
        is never issued again from generation 0 (the free list itself is
        not durable: those numbers are leaked, not reused).
        """
        report = RecoveryReport()
        report.blocks_reclaimed = self.blocks_reclaimed
        pending, self._pending = self._pending, None
        self.needs_recovery = False
        if pending is None:
            return report
        records, suspect = pending
        report.high_water = self._high_water
        entries = {}
        for payload in records:
            if not self._apply_record(payload, entries, report):
                suspect = True
        if suspect:
            report.suspect = True
            report.commits.clear()
            rng = rng or RandomSource()
            for entry in entries.values():
                entry.secret = table.scheme.new_secret(rng)
                entry.generation += 1
                report.secrets_regenerated += 1
        for entry in entries.values():
            table.restore_entry(entry)
        table.raise_high_water(report.high_water)
        if suspect:
            self.snapshot(table)
            self._log.repair_tail()
        report.entries_restored = len(entries)
        return report

    def _apply_record(self, payload, entries, report):
        """Apply one parsed record; False marks the medium suspect (a
        CRC-clean record that still fails to decode — or a delta its
        codec cannot apply — means tampering or a codec mismatch;
        either way, re-key the table)."""
        try:
            reader = Reader(payload)
            op = reader.u8()
            if op == OP_ENTRY:
                number = reader.uint(3)
                generation = reader.uint(4)
                lifetime_tag = reader.u8()
                lifetime = None
                if lifetime_tag == 0x01:
                    lifetime = reader.uint(4)
                elif lifetime_tag != 0xFF:
                    raise ValueError("bad lifetime tag")
                secret = unpack_secret(reader)
                data = self.codec.decode(bytes(reader.take(reader.uint(4))))
                entries[number] = ObjectEntry(
                    number=number,
                    secret=secret,
                    data=data,
                    generation=generation,
                    lifetime=lifetime,
                )
                report.high_water = max(report.high_water, number + 1)
            elif op == OP_REFRESH:
                number = reader.uint(3)
                generation = reader.uint(4)
                secret = unpack_secret(reader)
                entry = entries.get(number)
                if entry is not None:
                    entry.secret = secret
                    entry.generation = generation
            elif op == OP_DESTROY:
                entries.pop(reader.uint(3), None)
            elif op == OP_UPDATE:
                number = reader.uint(3)
                data = self.codec.decode(bytes(reader.take(reader.uint(4))))
                entry = entries.get(number)
                if entry is not None:
                    entry.data = data
            elif op == OP_DELTA:
                # An idempotent state assignment, so replaying it over a
                # snapshot that already holds the change is a no-op.
                entry = entries.get(reader.uint(3))
                if entry is not None:
                    entry.data = self.codec.apply_delta(
                        entry.data, payload[reader.pos:]
                    )
            elif op == OP_COMMIT:
                src = reader.uint(8)
                reply_value = reader.uint(6)
                report.commits[(src, reply_value)] = bytes(
                    reader.take(reader.uint(4))
                )
            else:
                raise ValueError("unknown record op %d" % op)
        except (ValueError, TypeError, OverflowError, IndexError,
                struct.error, MalformedCapability):
            # The last three: a codec unpacking a short or mismatched
            # payload.
            return False
        report.records_replayed += 1
        return True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def stats(self):
        """Store counters (stable keys for the benchmarks)."""
        return {
            "epoch": self.epoch,
            "records_appended": self._log.records_appended,
            "snapshots_taken": self.snapshots_taken,
            "disk_writes": self.disk.writes,
            "disk_reads": self.disk.reads,
            "used_blocks": self.disk.used_blocks,
            "blocks_reclaimed": self.blocks_reclaimed,
        }
