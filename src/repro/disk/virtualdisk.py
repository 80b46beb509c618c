"""A simulated raw disk: numbered blocks, allocation, write-once media.

The paper's storage servers sit on real disks (and, for the multiversion
file server, on video disks and "other write-once media").  This module is
the laptop-scale substitute: an in-memory array of fixed-size blocks with
an allocation bitmap, read/write counters for the benchmarks, and an
optional write-once mode in which a block, once written, can never be
rewritten (and never freed), matching §3.5's constraint that committed
pages are immutable.

Thread safety: every public operation takes one internal lock, because
the write-ahead log (:mod:`repro.disk.wal`) appends from whichever
thread mutates the object table — a station's pump thread, a test's
writers — and allocation, the I/O counters, and the block map must not
race.  The lock is never held across anything but
dict/list work, so it costs one uncontended acquisition per call.

Fault injection: a :class:`~repro.disk.diskfaults.DiskFaultPlan` passed
as ``faults`` intercepts every write — it can tear it (a prefix lands,
the tail keeps the old bits), lose it entirely (the device acks, the
medium never changes), or declare a power failure, after which every
write raises :class:`~repro.errors.PowerFailure` until ``revive()``.
Reads are never faulted: the recovery story this feeds is about what a
*crash during writing* leaves behind, not flaky media.
"""

import threading

from repro.errors import OutOfSpace, WriteOnceViolation

#: Default block geometry: 1986-plausible 512-byte sectors.
DEFAULT_BLOCK_SIZE = 512


class VirtualDisk:
    """An array of ``n_blocks`` blocks of ``block_size`` bytes each."""

    def __init__(
        self, n_blocks, block_size=DEFAULT_BLOCK_SIZE, write_once=False,
        faults=None,
    ):
        if n_blocks < 1:
            raise ValueError("disk needs at least one block")
        if block_size < 1:
            raise ValueError("block size must be positive")
        self.n_blocks = n_blocks
        self.block_size = block_size
        self.write_once = write_once
        #: Optional :class:`~repro.disk.diskfaults.DiskFaultPlan`; may
        #: also be assigned after construction (tests arm faults only
        #: for the phase under study).
        self.faults = faults
        self._blocks = {}
        self._free = list(range(n_blocks - 1, -1, -1))
        #: Blocks currently handed out by allocate()/reserve().  A block
        #: must be in exactly one of ``_free``/``_allocated``; free()
        #: enforces it, so a double free (or freeing a block that was
        #: never allocated) can no longer put one block in two owners'
        #: hands.
        self._allocated = set()
        self._written = set()
        self._lock = threading.Lock()
        #: I/O counters for the benchmarks.
        self.reads = 0
        self.writes = 0

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    @property
    def free_blocks(self):
        return len(self._free)

    @property
    def used_blocks(self):
        return self.n_blocks - len(self._free)

    def allocate(self):
        """Reserve a free block and return its number."""
        with self._lock:
            if not self._free:
                raise OutOfSpace(
                    "disk full: all %d blocks in use" % self.n_blocks
                )
            block_no = self._free.pop()
            self._allocated.add(block_no)
            return block_no

    def reserve(self, block_no):
        """Claim a *specific* free block (fixed on-disk locations like a
        superblock).  Raises if it is already allocated."""
        self._check_block_no(block_no)
        with self._lock:
            if block_no in self._allocated:
                raise ValueError("block %d is already allocated" % block_no)
            self._free.remove(block_no)
            self._allocated.add(block_no)
            return block_no

    def free(self, block_no):
        """Return a block to the free pool (never allowed on write-once
        media — the bits are physically burnt).

        Raises ``ValueError`` on a double free or on freeing a block that
        was never allocated: either would push the number onto the free
        list twice and hand the same block to two owners.
        """
        self._check_block_no(block_no)
        with self._lock:
            if self.write_once and block_no in self._written:
                raise WriteOnceViolation(
                    "block %d is burnt into write-once media" % block_no
                )
            if block_no not in self._allocated:
                raise ValueError(
                    "freeing block %d, which is not allocated "
                    "(double free or never allocated)" % block_no
                )
            self._allocated.discard(block_no)
            self._blocks.pop(block_no, None)
            self._written.discard(block_no)
            self._free.append(block_no)

    def allocated_blocks(self):
        """Snapshot of the currently allocated block numbers (recovery
        uses this to reclaim blocks a crashed writer allocated but never
        linked into any on-disk structure)."""
        with self._lock:
            return frozenset(self._allocated)

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------

    def read(self, block_no):
        """Read a whole block (unwritten blocks read as zeros)."""
        self._check_block_no(block_no)
        with self._lock:
            self.reads += 1
            data = self._blocks.get(block_no)
        if data is None:
            return bytes(self.block_size)
        return bytes(data)

    def write(self, block_no, data):
        """Write a whole block, zero-padding short data.

        With a fault plan armed, the write may be torn (prefix new, tail
        old), silently lost (acked but the medium unchanged), or may
        raise :class:`~repro.errors.PowerFailure`.
        """
        if not 0 <= block_no < self.n_blocks:  # _check_block_no, inline
            raise ValueError(
                "block %d outside disk of %d blocks" % (block_no, self.n_blocks)
            )
        if len(data) > self.block_size:
            raise ValueError(
                "%d bytes exceed the %d-byte block" % (len(data), self.block_size)
            )
        if type(data) is bytes and len(data) == self.block_size:
            padded = data  # immutable and full-size: store it as handed over
        else:
            padded = bytes(data) + bytes(self.block_size - len(data))
        with self._lock:
            if self.write_once and block_no in self._written:
                raise WriteOnceViolation(
                    "block %d on write-once media is already written" % block_no
                )
            if self.faults is not None:
                # May raise PowerFailure — in which case the device never
                # acked and the counters stay untouched.
                padded = self.faults.apply_write(
                    block_no, padded, self._blocks.get(block_no)
                )
                if padded is None:  # lost write: acked, medium unchanged
                    self.writes += 1
                    return
            self.writes += 1
            self._blocks[block_no] = padded
            self._written.add(block_no)

    def is_written(self, block_no):
        self._check_block_no(block_no)
        with self._lock:
            return block_no in self._written

    def _check_block_no(self, block_no):
        if not 0 <= block_no < self.n_blocks:
            raise ValueError(
                "block %d outside disk of %d blocks" % (block_no, self.n_blocks)
            )

    def __repr__(self):
        return "VirtualDisk(%d/%d blocks used, %d-byte blocks%s)" % (
            self.used_blocks,
            self.n_blocks,
            self.block_size,
            ", write-once" if self.write_once else "",
        )
