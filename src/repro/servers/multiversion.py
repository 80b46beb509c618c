"""The multiversion file server (§3.5): tree-of-pages, COW, atomic commit.

"Each file consists of a tree of pages ... a user can ask to make a new
version of a file, which results in a capability for the new version.
The new version acts like it is a page-by-page copy of the original,
although in fact, pages are only copied when they are changed.  The new
version can be modified at will, and then atomically 'committed', thus
becoming the new file.  A file is thus a sequence of versions.  Once a
version of a file has been committed, it cannot be modified."

Commit is *optimistic* (the design comes from Mullender & Tanenbaum's
1982 optimistic-concurrency file server): a version records which
committed version it was derived from, and commit fails with
:class:`VersionConflict` if the file has moved on — the loser re-derives
and retries.  Pages live on a :class:`~repro.disk.virtualdisk.VirtualDisk`
that may be write-once ("designed for use with video disks and other
'write once' media"): copy-on-write never rewrites a page in place, so
the scheme runs unchanged on burnt media.
"""

from repro.core.rights import Rights
from repro.disk.virtualdisk import VirtualDisk
from repro.errors import (
    BadRequest,
    VersionConflict,
    VersionImmutable,
)
from repro.ipc.client import ServiceClient
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE

R_READ = Rights(0x01)
R_WRITE = Rights(0x02)

MV_CREATE = USER_BASE + 0
MV_NEW_VERSION = USER_BASE + 1
MV_READ = USER_BASE + 2
MV_WRITE = USER_BASE + 3
MV_COMMIT = USER_BASE + 4
MV_ABORT = USER_BASE + 5
MV_NVERSIONS = USER_BASE + 6
MV_READ_SEQ = USER_BASE + 7

MAX_TRANSFER = 48 * 1024


class MVFile:
    """A file: the append-only sequence of committed versions.

    Each version is a page table — a list of disk block numbers (``None``
    for never-written holes, which read as zeros).
    """

    def __init__(self):
        self.versions = [([], 0)]  # (page table, byte size); seq 0 is empty

    @property
    def latest_seq(self):
        return len(self.versions) - 1

    def version(self, seq):
        if not 0 <= seq < len(self.versions):
            raise BadRequest(
                "version %d outside history of %d versions"
                % (seq, len(self.versions))
            )
        return self.versions[seq]


class MVVersion:
    """An uncommitted working version derived from a committed one."""

    def __init__(self, file_number, base_seq, pages, size):
        self.file_number = file_number
        self.base_seq = base_seq
        self.pages = list(pages)
        self.size = size
        self.committed_as = None  # seq once committed
        self.aborted = False

    @property
    def is_open(self):
        return self.committed_as is None and not self.aborted


class MultiversionFileServer(ObjectServer):
    """Versioned tree-of-pages files with optimistic atomic commit."""

    service_name = "multiversion file server"

    def __init__(self, node, disk=None, **kwargs):
        super().__init__(node, **kwargs)
        self.disk = disk or VirtualDisk(n_blocks=8192)
        self._refcounts = {}
        #: COW effectiveness counters for the benchmarks.
        self.pages_copied = 0
        self.pages_shared = 0

    # ------------------------------------------------------------------
    # page bookkeeping
    # ------------------------------------------------------------------

    def _ref(self, block_no):
        if block_no is not None:
            self._refcounts[block_no] = self._refcounts.get(block_no, 0) + 1

    def _unref(self, block_no):
        if block_no is None:
            return
        count = self._refcounts.get(block_no, 0) - 1
        if count > 0:
            self._refcounts[block_no] = count
            return
        self._refcounts.pop(block_no, None)
        if not self.disk.write_once:
            self.disk.free(block_no)

    def _write_page(self, content):
        block_no = self.disk.allocate()
        self.disk.write(block_no, content)
        self._refcounts[block_no] = 1
        return block_no

    def _read_page(self, block_no):
        if block_no is None:
            return bytes(self.disk.block_size)
        return self.disk.read(block_no)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    @command(MV_CREATE)
    def _create(self, ctx):
        """Create a file whose version 0 is empty and committed."""
        cap = self.table.create(MVFile())
        return ctx.ok(capability=cap)

    @command(MV_NEW_VERSION, needs=R_WRITE)
    def _new_version(self, ctx):
        """Branch a working version off the latest committed version.

        No pages are copied — the new page table references the committed
        blocks, and the reference counts record the sharing.
        """
        entry = ctx.entry
        mvfile = self._as_file(entry)
        pages, size = mvfile.version(mvfile.latest_seq)
        for block in pages:
            self._ref(block)
            if block is not None:
                self.pages_shared += 1
        version = MVVersion(entry.number, mvfile.latest_seq, pages, size)
        cap = self.table.create(version)
        return ctx.ok(capability=cap, size=mvfile.latest_seq)

    @command(MV_READ, needs=R_READ)
    def _read(self, ctx):
        """Read from the latest committed version (file capability) or
        from a working version (version capability)."""
        entry = ctx.entry
        if isinstance(entry.data, MVFile):
            pages, size = entry.data.version(entry.data.latest_seq)
        elif isinstance(entry.data, MVVersion):
            pages, size = entry.data.pages, entry.data.size
        else:
            raise BadRequest("object %d is not a file or version" % entry.number)
        data = self._read_range(pages, size, ctx.request.offset, ctx.request.size)
        return ctx.ok(data=data)

    @command(MV_READ_SEQ, needs=R_READ)
    def _read_seq(self, ctx):
        """Read any historical committed version: seq in the size field,
        transfer length as a 4-byte big-endian integer in data."""
        mvfile = self._as_file(ctx.entry)
        if len(ctx.request.data) != 4:
            raise BadRequest("READ_SEQ needs a 4-byte length in the data field")
        length = int.from_bytes(ctx.request.data, "big")
        pages, size = mvfile.version(ctx.request.size)
        data = self._read_range(pages, size, ctx.request.offset, length)
        return ctx.ok(data=data)

    @command(MV_WRITE, needs=R_WRITE)
    def _write(self, ctx):
        """Write to an *uncommitted* version; shared pages copy on write."""
        version = self._as_version(ctx.entry)
        if not version.is_open:
            raise VersionImmutable(
                "version is %s and can no longer be modified"
                % ("committed" if version.committed_as is not None else "aborted")
            )
        offset, data = ctx.request.offset, ctx.request.data
        if len(data) > MAX_TRANSFER:
            raise BadRequest("transfer larger than %d bytes" % MAX_TRANSFER)
        if offset < 0:
            raise BadRequest("negative offset")
        page_size = self.disk.block_size
        end = offset + len(data)
        while len(version.pages) * page_size < end:
            version.pages.append(None)
        position = offset
        remaining = memoryview(bytes(data))
        while remaining:
            index, within = divmod(position, page_size)
            take = min(page_size - within, len(remaining))
            old_block = version.pages[index]
            if within == 0 and take == page_size:
                content = bytes(remaining[:take])
            else:
                page = bytearray(self._read_page(old_block))
                page[within:within + take] = remaining[:take]
                content = bytes(page)
            # Copy on write: never touch the old block, which may be
            # shared with committed versions (or burnt into the media).
            version.pages[index] = self._write_page(content)
            if old_block is not None:
                self.pages_copied += 1
            self._unref(old_block)
            position += take
            remaining = remaining[take:]
        version.size = max(version.size, end)
        return ctx.ok(size=version.size)

    @command(MV_COMMIT, needs=R_WRITE)
    def _commit(self, ctx):
        """Atomically make the working version the file's newest version.

        Optimistic concurrency: fails with :class:`VersionConflict` when
        some other version committed since this one was derived.
        """
        version = self._as_version(ctx.entry)
        if not version.is_open:
            raise VersionImmutable("version already committed or aborted")
        mvfile_entry = self.table._entry(version.file_number)
        mvfile = mvfile_entry.data
        if mvfile.latest_seq != version.base_seq:
            raise VersionConflict(
                "file advanced to version %d while this one was derived "
                "from %d" % (mvfile.latest_seq, version.base_seq)
            )
        mvfile.versions.append((list(version.pages), version.size))
        version.committed_as = mvfile.latest_seq
        # Ownership of the page references passes to the file; the
        # version object keeps reading through its (now frozen) table.
        return ctx.ok(size=version.committed_as)

    @command(MV_ABORT, needs=R_WRITE)
    def _abort(self, ctx):
        """Discard a working version, releasing its private pages."""
        version = self._as_version(ctx.entry)
        if not version.is_open:
            raise VersionImmutable("version already committed or aborted")
        for block in version.pages:
            self._unref(block)
        version.aborted = True
        version.pages = []
        version.size = 0
        return ctx.ok()

    @command(MV_NVERSIONS, needs=R_READ)
    def _n_versions(self, ctx):
        return ctx.ok(size=len(self._as_file(ctx.entry).versions))

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _read_range(self, pages, size, offset, length):
        if offset < 0 or length < 0:
            raise BadRequest("negative offset or length")
        if length > MAX_TRANSFER:
            raise BadRequest("transfer larger than %d bytes" % MAX_TRANSFER)
        length = max(0, min(length, size - offset))
        if length == 0:
            return b""
        page_size = self.disk.block_size
        out = bytearray()
        position = offset
        while position < offset + length:
            index, within = divmod(position, page_size)
            block = pages[index] if index < len(pages) else None
            page = self._read_page(block)
            take = min(page_size - within, offset + length - position)
            out.extend(page[within:within + take])
            position += take
        return bytes(out)

    @staticmethod
    def _as_file(entry):
        if not isinstance(entry.data, MVFile):
            raise BadRequest("object %d is not a multiversion file" % entry.number)
        return entry.data

    @staticmethod
    def _as_version(entry):
        if not isinstance(entry.data, MVVersion):
            raise BadRequest("object %d is not a version" % entry.number)
        return entry.data

    def on_destroy(self, entry):
        if isinstance(entry.data, MVFile):
            for pages, _ in entry.data.versions:
                for block in pages:
                    self._unref(block)
        elif isinstance(entry.data, MVVersion) and entry.data.is_open:
            for block in entry.data.pages:
                self._unref(block)


class MultiversionClient(ServiceClient):
    """Typed client for the multiversion file server."""

    def create_file(self):
        return self.call(MV_CREATE).capability

    def new_version(self, file_cap):
        """Branch a working version; returns ``(version_cap, base_seq)``."""
        reply = self.call(MV_NEW_VERSION, capability=file_cap)
        return reply.capability, reply.size

    def read(self, cap, offset=0, size=MAX_TRANSFER):
        return self.call(MV_READ, capability=cap, offset=offset, size=size).data

    def read_version(self, file_cap, seq, offset=0, length=MAX_TRANSFER):
        return self.call(
            MV_READ_SEQ,
            capability=file_cap,
            offset=offset,
            size=seq,
            data=length.to_bytes(4, "big"),
        ).data

    def write(self, version_cap, offset, data):
        return self.call(
            MV_WRITE, capability=version_cap, offset=offset, data=data
        ).size

    def commit(self, version_cap):
        """Atomic commit; returns the new sequence number."""
        return self.call(MV_COMMIT, capability=version_cap).size

    def abort(self, version_cap):
        self.call(MV_ABORT, capability=version_cap)

    def n_versions(self, file_cap):
        return self.call(MV_NVERSIONS, capability=file_cap).size
