"""The flat file server (§3.3): linear byte sequences, no open state.

"The flat file server provides its clients with files consisting of a
linear sequence of bytes ... The server does not have any concept of an
'open' file.  One can operate on any file for which a valid capability
can be presented."

Two storage backends exist:

* an in-memory store (the default) for speed, and
* a *block-server* store, which makes the flat file server itself a
  client of a :class:`~repro.servers.block.BlockServer` — the §3.2
  modular stack, with file bytes striped over capability-named blocks.
"""

from repro.core.rights import Rights
from repro.errors import BadRequest
from repro.ipc.client import ServiceClient
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE

R_READ = Rights(0x01)
R_WRITE = Rights(0x02)

FILE_CREATE = USER_BASE + 0
FILE_READ = USER_BASE + 1
FILE_WRITE = USER_BASE + 2
FILE_SIZE = USER_BASE + 3

#: Largest single transfer, keeping messages datagram-sized.
MAX_TRANSFER = 48 * 1024


class MemoryFile:
    """A file as a growable byte array."""

    def __init__(self, initial=b""):
        self.content = bytearray(initial)

    @property
    def size(self):
        return len(self.content)

    def read(self, offset, length):
        if offset < 0 or length < 0:
            raise BadRequest("negative offset or length")
        return bytes(self.content[offset:offset + length])

    def write(self, offset, data):
        if offset < 0:
            raise BadRequest("negative offset")
        end = offset + len(data)
        if end > len(self.content):
            self.content.extend(bytes(end - len(self.content)))
        self.content[offset:end] = data

    def release(self):
        self.content = bytearray()


class BlockFile:
    """A file striped over block-server blocks, fetched by capability.

    The flat file server holds the block capabilities; clients of the
    file server never see them — layering exactly as §3.2 intends.
    """

    def __init__(self, block_client):
        self._blocks = []  # block capabilities, in file order
        self._client = block_client
        self._block_size = None
        self.size = 0

    def _ensure_block(self, index):
        while len(self._blocks) <= index:
            cap, block_size = self._client.alloc()
            self._block_size = block_size
            self._blocks.append(cap)
        return self._blocks[index]

    def _geometry(self):
        if self._block_size is None:
            cap, block_size = self._client.alloc()
            self._block_size = block_size
            self._blocks.append(cap)
        return self._block_size

    def read(self, offset, length):
        if offset < 0 or length < 0:
            raise BadRequest("negative offset or length")
        length = max(0, min(length, self.size - offset))
        if length == 0:
            return b""
        block_size = self._geometry()
        out = bytearray()
        position = offset
        while position < offset + length:
            index, within = divmod(position, block_size)
            chunk = self._client.read(self._blocks[index])
            take = min(block_size - within, offset + length - position)
            out.extend(chunk[within:within + take])
            position += take
        return bytes(out)

    def write(self, offset, data):
        if offset < 0:
            raise BadRequest("negative offset")
        block_size = self._geometry()
        position = offset
        remaining = memoryview(bytes(data))
        while remaining:
            index, within = divmod(position, block_size)
            cap = self._ensure_block(index)
            take = min(block_size - within, len(remaining))
            if within == 0 and take == block_size:
                new_block = bytes(remaining[:take])
            else:
                current = bytearray(self._client.read(cap))
                current[within:within + take] = remaining[:take]
                new_block = bytes(current)
            self._client.write(cap, new_block)
            position += take
            remaining = remaining[take:]
        self.size = max(self.size, offset + len(data))

    def release(self):
        for cap in self._blocks:
            self._client.free(cap)
        self._blocks = []
        self.size = 0


class FlatFileServer(ObjectServer):
    """CREATE / READ / WRITE / DESTROY over linear byte files."""

    service_name = "flat file server"

    def __init__(self, node, block_client=None, **kwargs):
        super().__init__(node, **kwargs)
        #: When set, files live on the block server behind this client.
        self.block_client = block_client

    def _new_file(self, initial):
        if self.block_client is None:
            return MemoryFile(initial)
        f = BlockFile(self.block_client)
        if initial:
            f.write(0, initial)
        return f

    @command(FILE_CREATE)
    def _create(self, ctx):
        """CREATE FILE with optional initial contents."""
        if len(ctx.request.data) > MAX_TRANSFER:
            raise BadRequest("initial contents exceed %d bytes" % MAX_TRANSFER)
        f = self._new_file(ctx.request.data)
        cap = self.table.create(f)
        return ctx.ok(capability=cap)

    @command(FILE_READ)
    def _read(self, ctx):
        """READ FILE at the position given by the offset parameter."""
        entry, _ = ctx.lookup(R_READ)
        if ctx.request.size > MAX_TRANSFER:
            raise BadRequest("transfer larger than %d bytes" % MAX_TRANSFER)
        data = entry.data.read(ctx.request.offset, ctx.request.size)
        return ctx.ok(data=data)

    @command(FILE_WRITE)
    def _write(self, ctx):
        """WRITE FILE at the position given by the offset parameter."""
        entry, _ = ctx.lookup(R_WRITE)
        if len(ctx.request.data) > MAX_TRANSFER:
            raise BadRequest("transfer larger than %d bytes" % MAX_TRANSFER)
        entry.data.write(ctx.request.offset, ctx.request.data)
        return ctx.ok(size=entry.data.size)

    @command(FILE_SIZE)
    def _size(self, ctx):
        entry, _ = ctx.lookup(R_READ)
        return ctx.ok(size=entry.data.size)

    def on_destroy(self, entry):
        entry.data.release()

    def describe(self, entry):
        return "flat file of %d bytes" % entry.data.size


class FlatFileClient(ServiceClient):
    """Typed client for the flat file server."""

    def create(self, initial=b""):
        """CREATE FILE; returns the file capability."""
        return self.call(FILE_CREATE, data=initial).capability

    def read(self, file_cap, offset=0, size=MAX_TRANSFER):
        """READ FILE; short reads happen at end of file."""
        return self.call(
            FILE_READ, capability=file_cap, offset=offset, size=size
        ).data

    def write(self, file_cap, offset, data):
        """WRITE FILE; returns the file size afterwards."""
        return self.call(
            FILE_WRITE, capability=file_cap, offset=offset, data=data
        ).size

    def size(self, file_cap):
        return self.call(FILE_SIZE, capability=file_cap).size

    def read_all(self, file_cap):
        """Read a whole file regardless of size, chunk by chunk."""
        out = bytearray()
        size = self.size(file_cap)
        offset = 0
        while offset < size:
            chunk = self.read(file_cap, offset, min(MAX_TRANSFER, size - offset))
            if not chunk:
                break
            out.extend(chunk)
            offset += len(chunk)
        return bytes(out)
