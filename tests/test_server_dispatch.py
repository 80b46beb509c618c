"""Tests for the ObjectServer skeleton: dispatch, std ops, error replies."""

from dataclasses import replace

import pytest

from repro.core.rights import Rights
from repro.crypto.randomsrc import RandomSource
from repro.errors import (
    BadRequest,
    InvalidCapability,
    NoSuchObject,
    PermissionDenied,
)
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import STD_TOUCH, USER_BASE
from repro.net.network import SimNetwork
from repro.net.nic import Nic

from tests.conftest import make_client


class CounterServer(ObjectServer):
    service_name = "counter"

    @command(USER_BASE, needs=Rights(0x02))
    def _increment(self, ctx):
        entry = ctx.entry
        entry.data["count"] += ctx.request.size
        return ctx.ok(size=entry.data["count"])

    @command(USER_BASE + 1, needs=Rights(0x01))
    def _get(self, ctx):
        return ctx.ok(size=ctx.entry.data["count"])

    @command(USER_BASE + 2)
    def _boom(self, ctx):
        raise RuntimeError("not an AmoebaError")


@pytest.fixture
def world():
    net = SimNetwork()
    server = CounterServer(Nic(net), rng=RandomSource(seed=1)).start()
    client = make_client(Nic(net), server, RandomSource(seed=2))
    return net, server, client


class TestDispatch:
    def test_user_command(self, world):
        _, server, client = world
        cap = server.table.create({"count": 0})
        assert client.call(USER_BASE, capability=cap, size=5).size == 5
        assert client.call(USER_BASE + 1, capability=cap).size == 5

    def test_unknown_opcode(self, world):
        _, server, client = world
        with pytest.raises(BadRequest):
            client.call(9999)

    def test_request_counts(self, world):
        _, server, client = world
        cap = server.table.create({"count": 0})
        client.call(USER_BASE + 1, capability=cap)
        client.call(USER_BASE + 1, capability=cap)
        assert server.request_counts[USER_BASE + 1] == 2

    def test_duplicate_opcode_rejected_at_definition(self):
        with pytest.raises(ValueError):

            class Broken(ObjectServer):
                @command(USER_BASE)
                def _a(self, ctx):
                    pass

                @command(USER_BASE)
                def _b(self, ctx):
                    pass

            Broken(Nic(SimNetwork()))

    def test_stop_prevents_delivery(self, world):
        _, server, client = world
        server.stop()
        from repro.errors import PortNotLocated

        with pytest.raises(PortNotLocated):
            client.call(STD_TOUCH)


class TestErrorReplies:
    def test_amoeba_errors_map_to_status(self, world):
        _, server, client = world
        cap = server.table.create({"count": 0})
        weak = server.table.restrict(cap, Rights(0x01))
        with pytest.raises(PermissionDenied):
            client.call(USER_BASE, capability=weak, size=1)

    def test_invalid_capability_over_wire(self, world):
        _, server, client = world
        cap = server.table.create({"count": 0})
        with pytest.raises(InvalidCapability):
            client.call(USER_BASE + 1, capability=replace(cap, rights=0x55))

    def test_missing_capability(self, world):
        _, server, client = world
        with pytest.raises(BadRequest):
            client.call(USER_BASE)

    def test_error_message_preserved(self, world):
        _, server, client = world
        try:
            client.call(9999)
        except BadRequest as exc:
            assert "9999" in str(exc)

    def test_crashing_handler_becomes_generic_error(self, world):
        from repro.errors import AmoebaError

        _, server, client = world
        with pytest.raises(AmoebaError) as excinfo:
            client.call(USER_BASE + 2)
        assert "internal error" in str(excinfo.value)


class TestStdOps:
    def test_restrict_refresh_destroy_flow(self, world):
        _, server, client = world
        cap = server.table.create({"count": 0})
        weak = client.restrict(cap, 0x03)
        assert client.call(USER_BASE, capability=weak, size=2).size == 2
        fresh = client.refresh(cap)
        with pytest.raises(InvalidCapability):
            client.call(USER_BASE + 1, capability=weak)
        client.destroy(fresh)
        with pytest.raises(NoSuchObject):
            client.touch(fresh)

    def test_refresh_needs_admin_bit(self, world):
        _, server, client = world
        cap = server.table.create({"count": 0})
        no_admin = client.restrict(cap, 0x7F)
        with pytest.raises(PermissionDenied):
            client.refresh(no_admin)

    def test_destroy_needs_admin_bit(self, world):
        _, server, client = world
        cap = server.table.create({"count": 0})
        no_admin = client.restrict(cap, 0x7F)
        with pytest.raises(PermissionDenied):
            client.destroy(no_admin)

    def test_touch(self, world):
        _, server, client = world
        cap = server.table.create({"count": 0})
        client.touch(cap)
        entry, _ = server.table.lookup(cap)
        assert entry.touches >= 2


class TestSignedReplies:
    def test_replies_carry_signature_image(self, world):
        net, server, _ = world
        captured = []
        net.add_tap(lambda f: f.message.is_reply and captured.append(f.message))
        client = make_client(Nic(net), server, RandomSource(seed=3))
        cap = server.table.create({"count": 0})
        client.touch(cap)
        assert captured
        assert all(m.signature == server.signature_image for m in captured)
