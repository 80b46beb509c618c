"""Tests for the memory server (§3.1): segments, processes, remote exec."""

import pytest

from repro.crypto.randomsrc import RandomSource
from repro.errors import (
    BadRequest,
    InvalidCapability,
    OutOfSpace,
    PermissionDenied,
    ProcessStateError,
)
from repro.kernel.machine import Machine
from repro.kernel.memory import R_READ, R_WRITE
from repro.net.network import SimNetwork


@pytest.fixture
def world():
    net = SimNetwork()
    server_machine = Machine(net, rng=RandomSource(seed=1), memory_capacity=1 << 16)
    client_machine = Machine(net, rng=RandomSource(seed=2),
                             with_memory_server=False)
    memory = client_machine.memory_client(remote_port=server_machine.memory_port)
    return net, server_machine, client_machine, memory


class TestSegments:
    def test_create_write_read(self, world):
        _, _, _, memory = world
        seg = memory.create_segment(1024)
        memory.write(seg, 100, b"stack data")
        assert memory.read(seg, 100, 10) == b"stack data"

    def test_initial_contents(self, world):
        _, _, _, memory = world
        seg = memory.create_segment(64, initial=b"text segment")
        assert memory.read(seg, 0, 12) == b"text segment"

    def test_initial_larger_than_size(self, world):
        _, _, _, memory = world
        with pytest.raises(BadRequest):
            memory.create_segment(4, initial=b"too much data")

    def test_segment_size(self, world):
        _, _, _, memory = world
        seg = memory.create_segment(777)
        assert memory.segment_size(seg) == 777

    def test_bounds_enforced(self, world):
        _, _, _, memory = world
        seg = memory.create_segment(16)
        with pytest.raises(BadRequest):
            memory.read(seg, 10, 10)
        with pytest.raises(BadRequest):
            memory.write(seg, 14, b"xxx")

    def test_capacity_enforced(self, world):
        _, _, _, memory = world
        memory.create_segment(1 << 15)
        with pytest.raises(OutOfSpace):
            memory.create_segment(1 << 15 + 1)

    def test_destroy_releases_capacity(self, world):
        _, server_machine, _, memory = world
        seg = memory.create_segment(1 << 15)
        used_before = server_machine.memory_server.used
        memory.destroy(seg)
        assert server_machine.memory_server.used == used_before - (1 << 15)

    def test_rights_enforced(self, world):
        _, _, _, memory = world
        seg = memory.create_segment(64)
        read_only = memory.restrict(seg, R_READ)
        assert memory.read(read_only, 0, 4) == bytes(4)
        with pytest.raises(PermissionDenied):
            memory.write(read_only, 0, b"nope")

    def test_electronic_disk_usage(self, world):
        """§3.1: a big segment read and written at offsets IS a disk."""
        _, _, _, memory = world
        disk = memory.create_segment(8192)
        block = 512
        memory.write(disk, 3 * block, b"sector three")
        memory.write(disk, 7 * block, b"sector seven")
        assert memory.read(disk, 3 * block, 12) == b"sector three"
        assert memory.read(disk, 7 * block, 12) == b"sector seven"


class TestProcesses:
    def test_make_process_from_segments(self, world):
        """The §3.1 walkthrough: CREATE SEGMENT (text, data, stack) then
        MAKE PROCESS with the capabilities as parameters."""
        _, _, _, memory = world
        text = memory.create_segment(128, initial=b"code")
        data = memory.create_segment(128, initial=b"globals")
        stack = memory.create_segment(256)
        proc = memory.make_process("child", [text, data, stack])
        assert "child" in memory.process_info(proc)
        assert "segments=3" in memory.process_info(proc)

    def test_start_stop(self, world):
        _, _, _, memory = world
        seg = memory.create_segment(16)
        proc = memory.make_process("p", [seg])
        assert memory.start(proc) == "running"
        assert memory.stop(proc) == "stopped"

    def test_double_start_is_state_error(self, world):
        _, _, _, memory = world
        proc = memory.make_process("p", [memory.create_segment(16)])
        memory.start(proc)
        with pytest.raises(ProcessStateError):
            memory.start(proc)

    def test_process_control_needs_ctl_right(self, world):
        _, _, _, memory = world
        proc = memory.make_process("p", [memory.create_segment(16)])
        observer = memory.restrict(proc, R_READ)
        with pytest.raises(PermissionDenied):
            memory.start(observer)
        assert "stopped" in memory.process_info(observer)

    def test_foreign_segment_capability_rejected(self, world):
        net, server_machine, client_machine, memory = world
        other = Machine(net, rng=RandomSource(seed=3), memory_capacity=1 << 16)
        other_memory = client_machine.memory_client(remote_port=other.memory_port)
        foreign_seg = other_memory.create_segment(16)
        with pytest.raises(InvalidCapability):
            memory.make_process("p", [foreign_seg])

    def test_segment_cap_without_read_right_rejected(self, world):
        _, _, _, memory = world
        seg = memory.create_segment(16)
        no_read = memory.restrict(seg, R_WRITE)
        with pytest.raises(PermissionDenied):
            memory.make_process("p", [no_read])

    def test_process_cap_cannot_read_segments(self, world):
        _, _, _, memory = world
        proc = memory.make_process("p", [memory.create_segment(16)])
        with pytest.raises(BadRequest):
            memory.read(proc, 0, 4)


class TestRemoteProcessCreation:
    def test_child_on_chosen_machine(self, world):
        """'By directing the CREATE SEGMENT requests to a memory server on
        a remote machine, the parent can create the child wherever it
        wants to.'"""
        net, server_machine, client_machine, _ = world
        far = Machine(net, rng=RandomSource(seed=4), memory_capacity=1 << 16)
        for target in (server_machine, far):
            memory = client_machine.memory_client(remote_port=target.memory_port)
            seg = memory.create_segment(64, initial=b"program text")
            proc = memory.make_process("remote-child", [seg])
            assert memory.start(proc) == "running"
            # The process object lives in the *target* machine's table.
            assert proc.port == target.memory_port
