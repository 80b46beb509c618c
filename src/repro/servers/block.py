"""The block server (§3.2): raw disk blocks as capability-named objects.

"The block server can be requested to allocate a disk block and return a
capability for it.  Using this capability, the block can be written,
read, or deallocated.  The block server has no concept of a file."

Splitting block storage from file semantics is the paper's modularity
argument: anyone can build "any kind of special-purpose file system"
above this interface — which is exactly what
:class:`~repro.servers.flatfile.FlatFileServer` does when configured with
a block-server backend.
"""

from repro.core.rights import Rights
from repro.disk.virtualdisk import VirtualDisk
from repro.errors import BadRequest, OutOfSpace
from repro.ipc.client import ServiceClient
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE

R_READ = Rights(0x01)
R_WRITE = Rights(0x02)

BLK_ALLOC = USER_BASE + 0
BLK_READ = USER_BASE + 1
BLK_WRITE = USER_BASE + 2


class BlockServer(ObjectServer):
    """Allocates, reads, and writes raw disk blocks by capability."""

    service_name = "block server"

    def __init__(self, node, disk=None, **kwargs):
        super().__init__(node, **kwargs)
        self.disk = disk or VirtualDisk(n_blocks=4096)

    @command(BLK_ALLOC)
    def _alloc(self, ctx):
        """Allocate one block; optional initial contents in the data field."""
        if len(ctx.request.data) > self.disk.block_size:
            raise BadRequest(
                "initial data exceeds the %d-byte block" % self.disk.block_size
            )
        block_no = self.disk.allocate()
        if ctx.request.data:
            self.disk.write(block_no, ctx.request.data)
        try:
            cap = self.table.create(block_no)
        except OutOfSpace:  # the table is full or its log refused
            self.disk.free(block_no)
            raise
        return ctx.ok(capability=cap, size=self.disk.block_size)

    @command(BLK_READ, needs=R_READ)
    def _read(self, ctx):
        return ctx.ok(data=self.disk.read(ctx.entry.data))

    @command(BLK_WRITE, needs=R_WRITE)
    def _write(self, ctx):
        self.disk.write(ctx.entry.data, ctx.request.data)
        return ctx.ok()

    def on_destroy(self, entry):
        """Deallocation: the block returns to the free pool."""
        self.disk.free(entry.data)


class BlockClient(ServiceClient):
    """Typed client for the block server."""

    def alloc(self, initial=b""):
        """Allocate a block; returns ``(capability, block_size)``."""
        reply = self.call(BLK_ALLOC, data=initial)
        return reply.capability, reply.size

    def read(self, block_cap):
        return self.call(BLK_READ, capability=block_cap).data

    def write(self, block_cap, data):
        self.call(BLK_WRITE, capability=block_cap, data=data)

    def free(self, block_cap):
        """Deallocate: the standard DESTROY releases the disk block."""
        self.destroy(block_cap)
