"""A whole machine: NIC, kernel broadcast services, memory server.

The paper's hardware unit is a processor module behind an F-box.  A
:class:`Machine` bundles what every such module runs: the network
interface, the kernel's LOCATE responder, a port-location cache, an
(optional) in-kernel memory server, and bookkeeping for boot
announcements heard on the wire.
"""

from repro.crypto.randomsrc import RandomSource
from repro.ipc.locate import Locator, install_locate_responder
from repro.kernel.memory import MemoryClient, MemoryServer
from repro.net.nic import Nic
from repro.softprot.boot import Announcement

#: Broadcast command for §2.4 boot announcements.
ANNOUNCE = 21


class Machine:
    """One processor module attached to a simulated network."""

    def __init__(
        self,
        network,
        rng=None,
        scheme=None,
        memory_capacity=16 << 20,
        with_memory_server=True,
        name=None,
    ):
        self.network = network
        self.rng = rng or RandomSource()
        self.nic = Nic(network)
        self.name = name or ("machine-%d" % self.nic.address)
        install_locate_responder(self.nic)
        self.locator = Locator(self.nic, self.rng)
        #: Service announcements heard on the wire: name -> Announcement.
        self.heard_announcements = {}
        #: ANNOUNCE broadcasts that would not parse, and the last reason.
        self.announcements_dropped = 0
        self.last_error = None
        self.nic.on_broadcast(self._on_announce)
        self.memory_server = None
        if with_memory_server:
            self.memory_server = MemoryServer(
                self.nic, capacity=memory_capacity, scheme=scheme, rng=self.rng
            ).start()

    @property
    def memory_port(self):
        """Public put-port of this machine's memory server."""
        if self.memory_server is None:
            raise RuntimeError("%s runs no memory server" % self.name)
        return self.memory_server.put_port

    # ------------------------------------------------------------------
    # clients
    # ------------------------------------------------------------------

    def memory_client(self, remote_port=None, **kwargs):
        """A typed memory client for this or a *remote* machine.

        "By directing the CREATE SEGMENT requests to a memory server on a
        remote machine, the parent can create the child wherever it wants
        to" (§3.1).
        """
        port = self.memory_port if remote_port is None else remote_port
        kwargs.setdefault("rng", self.rng)
        kwargs.setdefault("locator", self.locator)
        return MemoryClient(self.nic, port, **kwargs)

    # ------------------------------------------------------------------
    # boot announcements (§2.4)
    # ------------------------------------------------------------------

    def announce(self, name, put_port, public_key):
        """Broadcast this machine's public service identity."""
        from repro.net.message import Message

        announcement = Announcement(
            name=name, put_port=put_port, public_key=public_key
        )
        self.nic.put_broadcast(
            Message(command=ANNOUNCE, data=announcement.pack())
        )
        return announcement

    def _on_announce(self, frame):
        if frame.message.command != ANNOUNCE:
            return
        try:
            announcement = Announcement.unpack(frame.message.data)
        except Exception as exc:
            self.announcements_dropped += 1
            self.last_error = exc
            return
        self.heard_announcements[announcement.name] = announcement
