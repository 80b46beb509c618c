"""The (minimal) kernel: machines, processes, and the memory server.

The paper's kernel philosophy is "as small as possible": the only kernel
component that manages objects is the memory server (§3.1), and even it
"communicates with other processes via the normal message protocol so
that its clients do not perceive it as being special in any way".
"""

from repro import _lazy

_EXPORTS = {
    "machine": "Machine",
    "memory": "MemoryClient MemoryServer",
    "process": "Process ProcessState",
}

__all__, __getattr__ = _lazy(globals())
