"""Storage substrate: the virtual disk behind the §3 storage servers,
plus the write-ahead log / snapshot store and disk fault injection that
give object tables a life across reboots."""

from repro.disk.diskfaults import DiskFaultPlan
from repro.disk.virtualdisk import VirtualDisk
from repro.disk.wal import ChainLog, DurableStore, RecoveryReport

__all__ = [
    "VirtualDisk",
    "DiskFaultPlan",
    "DurableStore",
    "RecoveryReport",
    "ChainLog",
]
