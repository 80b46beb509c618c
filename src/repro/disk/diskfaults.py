"""Deterministic disk fault injection: torn writes, lost writes, power loss.

The network side has :mod:`repro.net.faults`; this is the same idea for
the storage side, so the write-ahead log's recovery path
(:mod:`repro.disk.wal`) is tested against the crashes real disks
actually produce rather than against clean shutdowns.  A
:class:`DiskFaultPlan` is a *seeded, reproducible* fault schedule:
per-write decisions drawn from one private ``random.Random(seed)`` in
write order, so the same seed over the same I/O stream produces the
same faults on any host — the property that lets the recovery benchmark
keep the DES determinism-by-double-run contract with disk faults armed.

Fault semantics
---------------
* **torn write** — the write is interrupted partway through the sector:
  a seeded-length *prefix* of the new bytes lands, the tail keeps the
  old contents (zeros for a never-written block).  The device acks.
  This is what the WAL's per-record CRC exists to catch.
* **lost write** — the device acks but the medium never changes (a
  volatile write cache that never flushed).  Deliberately *undetectable*
  by checksums: the surviving log is shorter but internally clean, and
  recovery yields a consistent-but-older state.
* **power failure** — after ``power_fail_after`` acked writes, the next
  write raises :class:`~repro.errors.PowerFailure` and the disk stays
  dead (every later write raises too) until :meth:`revive` — modelling
  the machine going dark mid-snapshot, the worst case for a
  truncate-after-checkpoint protocol.

Targeted faults: ``torn_at``/``lost_at`` name exact write ordinals
(0-based, counting every write through the plan), so a test can tear
precisely the superblock commit or lose precisely a transaction's
commit record instead of fishing with probabilities.
"""

import random
import threading

from repro.errors import PowerFailure

__all__ = ["DiskFaultPlan"]


class DiskFaultPlan:
    """One seeded fault schedule shared by a disk's writes.

    Thread-safe: decisions are serialized under a lock (WAL appends
    arrive from any thread that mutates the table).  Determinism holds
    whenever the *write order* is deterministic — true under the
    single-threaded simulators and asserted by the recovery benchmark's
    double run.
    """

    def __init__(self, seed=0, torn=0.0, lost=0.0, power_fail_after=None,
                 torn_at=(), lost_at=()):
        for name, p in (("torn", torn), ("lost", lost)):
            if not 0.0 <= p <= 1.0:
                raise ValueError("%s probability %r outside [0, 1]" % (name, p))
        if power_fail_after is not None and power_fail_after < 0:
            raise ValueError("power_fail_after cannot be negative")
        self.seed = seed
        self.torn = torn
        self.lost = lost
        self.power_fail_after = power_fail_after
        self.torn_at = set(torn_at)
        self.lost_at = set(lost_at)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.reset_stats()

    def reset_stats(self):
        self.writes_seen = 0
        self.torn_writes = 0
        self.lost_writes = 0
        self.failed = False

    def apply_write(self, block_no, new, old):
        """Decide one write's fate; called by ``VirtualDisk.write`` with
        the padded new contents and the block's current contents (None
        for a never-written block).

        Returns the bytes that actually reach the medium, or ``None``
        for a lost write (acked, medium unchanged).  Raises
        :class:`~repro.errors.PowerFailure` when the power budget is
        exhausted — the failed write never acked.
        """
        with self._lock:
            if self.failed:
                raise PowerFailure("the machine is powered off")
            index = self.writes_seen
            if (self.power_fail_after is not None
                    and index >= self.power_fail_after):
                self.failed = True
                raise PowerFailure(
                    "power lost on write %d (block %d)" % (index, block_no)
                )
            self.writes_seen = index + 1
            # Draw both probabilities unconditionally (when armed) so the
            # decision stream depends only on the plan's configuration
            # and the write order, never on which faults happened to hit.
            torn = self.torn > 0 and self._rng.random() < self.torn
            lost = self.lost > 0 and self._rng.random() < self.lost
            if index in self.torn_at:
                torn = True
            if index in self.lost_at:
                lost = True
            if lost:
                self.lost_writes += 1
                return None
            if torn:
                self.torn_writes += 1
                base = old if old is not None else bytes(len(new))
                # Tear inside the sector: at least one new byte lands,
                # at least one old byte survives.
                cut = 1 + self._rng.randrange(len(new) - 1) if len(new) > 1 else 1
                return new[:cut] + base[cut:]
            return new

    def revive(self):
        """Power back on: writes flow again (the power budget is spent)."""
        with self._lock:
            self.failed = False
            self.power_fail_after = None

    def stats(self):
        """Counters as a dict (stable keys for the benchmarks)."""
        with self._lock:
            return {
                "writes_seen": self.writes_seen,
                "torn_writes": self.torn_writes,
                "lost_writes": self.lost_writes,
                "powered_off": self.failed,
            }
