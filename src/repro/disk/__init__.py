"""Storage substrate: the virtual disk behind the §3 storage servers,
plus the write-ahead log / snapshot store and disk fault injection that
give object tables a life across reboots."""

from repro import _lazy

_EXPORTS = {
    "diskfaults": "DiskFaultPlan",
    "virtualdisk": "VirtualDisk",
    "wal": "ChainLog DurableStore RecoveryReport",
}

__all__, __getattr__ = _lazy(globals())
