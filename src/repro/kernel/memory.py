"""The memory server (§3.1): segments, processes, electronic disks.

"The memory server is a process that manages physical memory and
processes at the lowest level.  It is actually part of the kernel present
on each machine, but it communicates with other processes via the normal
message protocol."

The operations reproduce the paper's walkthrough: CREATE SEGMENT returns
a segment capability; WRITE/READ move data in and out; MAKE PROCESS takes
the segment capabilities as parameters and returns a process capability
"with which the child can be started, stopped, and generally
manipulated".  Directing CREATE SEGMENT at a *remote* machine's memory
server creates the child there — the paper's alternative to FORK+EXEC —
and a big segment read and written at offsets is the "electronic disk".
"""

from repro.core.rights import NO_RIGHTS, Rights
from repro.errors import BadRequest, OutOfSpace
from repro.ipc.client import ServiceClient
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE
from repro.kernel.process import Process

# Rights bits for memory-server capabilities.
R_READ = Rights(0x01)
R_WRITE = Rights(0x02)
R_CTL = Rights(0x04)  # start/stop a process

# Operation codes.
MEM_CREATE_SEGMENT = USER_BASE + 0
MEM_READ_SEGMENT = USER_BASE + 1
MEM_WRITE_SEGMENT = USER_BASE + 2
MEM_SEGMENT_SIZE = USER_BASE + 3
MEM_MAKE_PROCESS = USER_BASE + 4
MEM_START_PROCESS = USER_BASE + 5
MEM_STOP_PROCESS = USER_BASE + 6
MEM_PROCESS_INFO = USER_BASE + 7

#: Largest single READ/WRITE transfer, keeping messages datagram-sized.
MAX_TRANSFER = 48 * 1024


class Segment:
    """A fixed-size byte segment with bounds-checked access."""

    def __init__(self, size):
        if size < 0:
            raise BadRequest("segment size cannot be negative")
        self.memory = bytearray(size)

    @property
    def size(self):
        return len(self.memory)

    def read(self, offset, length):
        self._check_range(offset, length)
        return bytes(self.memory[offset:offset + length])

    def write(self, offset, data):
        self._check_range(offset, len(data))
        self.memory[offset:offset + len(data)] = data

    def _check_range(self, offset, length):
        if offset < 0 or length < 0 or offset + length > len(self.memory):
            raise BadRequest(
                "range [%d, %d) outside segment of %d bytes"
                % (offset, offset + length, len(self.memory))
            )


class MemoryServer(ObjectServer):
    """One machine's memory and process manager."""

    service_name = "memory server"

    def __init__(self, node, capacity=16 << 20, **kwargs):
        super().__init__(node, **kwargs)
        #: Total bytes of segment space this machine offers.
        self.capacity = capacity
        self.used = 0

    # ------------------------------------------------------------------
    # segments
    # ------------------------------------------------------------------

    @command(MEM_CREATE_SEGMENT)
    def _create_segment(self, ctx):
        """CREATE SEGMENT: size in the size field, optional initial data."""
        size = ctx.request.size
        if len(ctx.request.data) > size:
            raise BadRequest(
                "initial data of %d bytes exceeds segment size %d"
                % (len(ctx.request.data), size)
            )
        if self.used + size > self.capacity:
            raise OutOfSpace(
                "segment of %d bytes exceeds remaining capacity %d"
                % (size, self.capacity - self.used)
            )
        segment = Segment(size)
        if ctx.request.data:
            segment.write(0, ctx.request.data)
        self.used += size
        cap = self.table.create(segment)
        return ctx.ok(capability=cap)

    @command(MEM_READ_SEGMENT, needs=R_READ)
    def _read_segment(self, ctx):
        segment = self._as_segment(ctx.entry)
        if ctx.request.size > MAX_TRANSFER:
            raise BadRequest("transfer larger than %d bytes" % MAX_TRANSFER)
        data = segment.read(ctx.request.offset, ctx.request.size)
        return ctx.ok(data=data)

    @command(MEM_WRITE_SEGMENT, needs=R_WRITE)
    def _write_segment(self, ctx):
        segment = self._as_segment(ctx.entry)
        if len(ctx.request.data) > MAX_TRANSFER:
            raise BadRequest("transfer larger than %d bytes" % MAX_TRANSFER)
        segment.write(ctx.request.offset, ctx.request.data)
        return ctx.ok()

    @command(MEM_SEGMENT_SIZE, needs=NO_RIGHTS)
    def _segment_size(self, ctx):
        return ctx.ok(size=self._as_segment(ctx.entry).size)

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------

    @command(MEM_MAKE_PROCESS, extra=R_READ)
    def _make_process(self, ctx):
        """MAKE PROCESS: segment capabilities arrive as extra capabilities;
        the process name rides in the data field."""
        name = ctx.request.data.decode("utf-8", "replace") or "process"
        segments = {}
        for i, entry in enumerate(ctx.extras):
            if not isinstance(entry.data, Segment):
                raise BadRequest("capability %d is not a segment" % i)
            segments["seg%d" % i] = entry.number
        process = Process(name, segments)
        cap = self.table.create(process)
        return ctx.ok(capability=cap)

    @command(MEM_START_PROCESS, needs=R_CTL)
    def _start_process(self, ctx):
        process = self._as_process(ctx.entry)
        process.start()  # a process made here has no program to run
        return ctx.ok(data=process.state.value.encode())

    @command(MEM_STOP_PROCESS, needs=R_CTL)
    def _stop_process(self, ctx):
        process = self._as_process(ctx.entry)
        process.stop()
        return ctx.ok(data=process.state.value.encode())

    @command(MEM_PROCESS_INFO, needs=R_READ)
    def _process_info(self, ctx):
        process = self._as_process(ctx.entry)
        info = "%s state=%s segments=%d runs=%d" % (
            process.name,
            process.state.value,
            len(process.segments),
            process.runs,
        )
        return ctx.ok(data=info.encode("utf-8"))

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _as_segment(entry):
        if not isinstance(entry.data, Segment):
            raise BadRequest("object %d is not a segment" % entry.number)
        return entry.data

    @staticmethod
    def _as_process(entry):
        if not isinstance(entry.data, Process):
            raise BadRequest("object %d is not a process" % entry.number)
        return entry.data

    def on_destroy(self, entry):
        if isinstance(entry.data, Segment):
            self.used -= entry.data.size
        elif isinstance(entry.data, Process):
            entry.data.kill()


class MemoryClient(ServiceClient):
    """Typed client for a (possibly remote) memory server."""

    def create_segment(self, size, initial=b""):
        """CREATE SEGMENT; returns the segment capability."""
        reply = self.call(MEM_CREATE_SEGMENT, size=size, data=initial)
        return reply.capability

    def read(self, segment_cap, offset, size):
        return self.call(
            MEM_READ_SEGMENT, capability=segment_cap, offset=offset, size=size
        ).data

    def write(self, segment_cap, offset, data):
        self.call(MEM_WRITE_SEGMENT, capability=segment_cap, offset=offset, data=data)

    def segment_size(self, segment_cap):
        return self.call(MEM_SEGMENT_SIZE, capability=segment_cap).size

    def make_process(self, name, segment_caps):
        """MAKE PROCESS from previously created segments."""
        reply = self.call(
            MEM_MAKE_PROCESS,
            data=name.encode("utf-8"),
            extra_caps=tuple(segment_caps),
        )
        return reply.capability

    def start(self, process_cap):
        return self.call(MEM_START_PROCESS, capability=process_cap).data.decode()

    def stop(self, process_cap):
        return self.call(MEM_STOP_PROCESS, capability=process_cap).data.decode()

    def process_info(self, process_cap):
        return self.call(MEM_PROCESS_INFO, capability=process_cap).data.decode()
