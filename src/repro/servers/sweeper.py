"""Reachability-based garbage collection over capability-named objects.

Sparse capabilities keep no holder records, so storage servers cannot
know which objects are still wanted.  Amoeba's answer (which this module
reproduces) is mark-and-age: a sweeper process walks everything reachable
from the naming roots, *touches* each capability at its own server
(STD_TOUCH proves liveness and resets the object's lifetime), and then
each server runs an aging pass that collects whatever went unproven.

The sweeper is an ordinary client: it holds the root directory
capabilities and needs no privileges beyond them — one more consequence
of keeping capability management out of the kernel.
"""

from repro.crypto.randomsrc import RandomSource
from repro.errors import AmoebaError
from repro.ipc.client import ServiceClient
from repro.servers.directory import DIR_LIST, DIR_LOOKUP


class ReachabilitySweeper:
    """Mark (touch) everything reachable from a set of root directories.

    Parameters
    ----------
    node:
        The station the sweeper runs on.
    roots:
        Root directory capabilities to walk from.
    client_factory:
        Optional ``f(port) -> ServiceClient`` for configured clients
        (signatures, sealing); defaults to plain clients per server.
    """

    def __init__(self, node, roots, rng=None, locator=None,
                 client_factory=None):
        self.node = node
        self.roots = list(roots)
        self.rng = rng or RandomSource()
        self.locator = locator
        self._client_factory = client_factory
        self._clients = {}
        #: Statistics from the last mark phase.
        self.touched = 0
        self.unreachable_errors = 0

    def _client(self, port):
        client = self._clients.get(port)
        if client is None:
            if self._client_factory is not None:
                client = self._client_factory(port)
            else:
                client = ServiceClient(
                    self.node, port, rng=self.rng, locator=self.locator
                )
            self._clients[port] = client
        return client

    def mark(self):
        """Touch every object reachable from the roots; returns the count.

        Directories are recognised by answering DIR_LIST; anything else
        is a leaf.  Cycles and shared subtrees are handled with a visited
        set keyed on (server port, object number) — rights and check
        fields deliberately excluded, so many capabilities for one object
        mark it once.
        """
        self.touched = 0
        self.unreachable_errors = 0
        visited = set()
        stack = list(self.roots)
        while stack:
            capability = stack.pop()
            key = (capability.port, capability.object)
            if key in visited:
                continue
            visited.add(key)
            client = self._client(capability.port)
            try:
                client.touch(capability)
                self.touched += 1
            except AmoebaError:
                # Dead entry (stale capability in some directory): skip.
                self.unreachable_errors += 1
                continue
            stack.extend(self._children(client, capability))
        return self.touched

    def _children(self, client, capability):
        """The capabilities stored under a directory, or [] for leaves."""
        try:
            names = client.call(
                DIR_LIST, capability=capability
            ).data.decode("utf-8")
        except AmoebaError:
            return []
        children = []
        for name in filter(None, names.split("\n")):
            try:
                reply = client.call(
                    DIR_LOOKUP, capability=capability,
                    data=name.encode("utf-8"),
                )
            except AmoebaError:
                self.unreachable_errors += 1
                continue
            if reply.capability is not None:
                children.append(reply.capability)
        return children

    def collect(self, servers):
        """One full GC cycle: mark, then age every given server.

        Returns ``(touched, expired)`` counts.  ``servers`` are the
        :class:`~repro.ipc.server.ObjectServer` instances whose operators
        cooperate in the sweep (aging is always a server-local decision).
        """
        touched = self.mark()
        expired = sum(len(server.sweep()) for server in servers)
        return touched, expired
