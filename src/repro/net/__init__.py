"""Network substrate: simulated LAN, F-boxes, NICs, and intruders.

The simulator reproduces the paper's threat model exactly: the wire is a
broadcast medium an intruder can tap, source addresses are stamped by the
network and cannot be forged (§2.4's assumption), and every NIC sends and
receives through an F-box that one-ways the reply and signature ports on
egress and admits only ports for which a GET was done (§2.2, Fig. 1).
"""

from repro import _lazy

_EXPORTS = {
    "fbox": "FBox",
    "intruder": "Intruder",
    "message": "Message",
    "network": "Frame SimNetwork",
    "nic": "Nic",
    "sched": "EventLoop",
}

__all__, __getattr__ = _lazy(globals())
