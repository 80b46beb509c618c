"""Process objects managed by the memory server (§3.1).

A process is built from segments (text, data, stack) previously created
with CREATE SEGMENT, assembled by MAKE PROCESS, and thereafter "started,
stopped, and generally manipulated" through its process capability.
Execution itself is simulated — a process optionally carries a Python
callable as its program — because what the paper exercises is the
*capability lifecycle* of processes, not an instruction set.
"""

import enum

from repro.errors import ProcessStateError


class ProcessState(enum.Enum):
    """Lifecycle of a memory-server process object."""

    STOPPED = "stopped"
    RUNNING = "running"
    DEAD = "dead"


class Process:
    """One process: named segments plus a state machine.

    ``segments`` maps a role name ("text", "data", "stack", ...) to the
    memory server's object number for that segment.
    """

    def __init__(self, name, segments, program=None):
        self.name = name
        self.segments = dict(segments)
        self.state = ProcessState.STOPPED
        self.program = program
        #: How many times the process has been started (experiment metric).
        self.runs = 0

    def start(self, segment_reader=None):
        """STOPPED -> RUNNING; runs the program callable if one is set.

        ``segment_reader`` is a function(segment_number) -> bytes the
        program may use to read its own segments, supplied by the memory
        server so the process never touches server internals.
        """
        if self.state is ProcessState.DEAD:
            raise ProcessStateError("process %r is dead" % self.name)
        if self.state is ProcessState.RUNNING:
            raise ProcessStateError("process %r is already running" % self.name)
        self.state = ProcessState.RUNNING
        self.runs += 1
        if self.program is not None:
            self.program(self, segment_reader)
        return self

    def stop(self):
        """RUNNING -> STOPPED."""
        if self.state is not ProcessState.RUNNING:
            raise ProcessStateError(
                "process %r is %s, not running" % (self.name, self.state.value)
            )
        self.state = ProcessState.STOPPED
        return self

    def kill(self):
        """Any state -> DEAD (idempotent)."""
        self.state = ProcessState.DEAD
        return self
