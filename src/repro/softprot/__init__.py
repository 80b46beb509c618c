"""Protection without F-boxes (§2.4).

When the network interface cannot be trusted to one-way ports, Amoeba
falls back to conventional cryptography keyed by the one thing an
intruder cannot forge: the source machine address.  This package builds
the full §2.4 stack:

* :mod:`~repro.softprot.matrix` — the conceptual key matrix M and the
  capability sealer that encrypts capabilities per (source, destination);
* :mod:`~repro.softprot.cache` — the hashed capability caches that avoid
  re-running the cipher on every message: one bounded LRU map under one
  lock each, with an exact per-object index so revocation drops one
  object's triples without a sweep;
* :mod:`~repro.softprot.boot` — the public-key bootstrap that a freshly
  booted machine uses to establish matrix keys and authenticate servers;
* :mod:`~repro.softprot.linkcrypt` — the link-level-encryption
  alternative the section closes with.
"""

from repro.softprot.boot import Announcement, BootProtocol
from repro.softprot.cache import (
    ClientCapabilityCache,
    LruCache,
    ServerCapabilityCache,
)
from repro.softprot.linkcrypt import LinkCryptNode
from repro.softprot.matrix import CapabilitySealer, KeyMatrix, MachineKeyView

__all__ = [
    "Announcement",
    "BootProtocol",
    "CapabilitySealer",
    "ClientCapabilityCache",
    "KeyMatrix",
    "LinkCryptNode",
    "LruCache",
    "MachineKeyView",
    "ServerCapabilityCache",
]
