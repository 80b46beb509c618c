"""Tests for the directory server (§3.4), including multi-server paths."""

import pytest

from repro.core.rights import Rights
from repro.crypto.randomsrc import RandomSource
from repro.disk.virtualdisk import VirtualDisk
from repro.disk.wal import DurableStore
from repro.errors import (
    BadRequest,
    NameExists,
    NameNotFound,
    OutOfSpace,
    PermissionDenied,
)
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.servers.directory import (
    DIR_CREATE,
    R_LOOKUP,
    R_MODIFY,
    DirectoryClient,
    DirectoryCodec,
    DirectoryServer,
    resolve_path,
)
from repro.servers.flatfile import FlatFileClient, FlatFileServer


@pytest.fixture
def world():
    net = SimNetwork()
    server = DirectoryServer(Nic(net), rng=RandomSource(seed=1)).start()
    client_nic = Nic(net)
    client = DirectoryClient(
        client_nic,
        server.put_port,
        rng=RandomSource(seed=2),
        expect_signature=server.signature_image,
    )
    root = server.create_root()
    return net, server, client, client_nic, root


class TestEntries:
    def test_enter_lookup(self, world):
        _, server, client, _, root = world
        target = server.table.create("some object")
        client.enter(root, "thing", target)
        assert client.lookup(root, "thing") == target

    def test_lookup_missing(self, world):
        _, _, client, _, root = world
        with pytest.raises(NameNotFound):
            client.lookup(root, "ghost")

    def test_enter_duplicate_refused(self, world):
        _, server, client, _, root = world
        target = server.table.create("x")
        client.enter(root, "name", target)
        with pytest.raises(NameExists):
            client.enter(root, "name", target)

    def test_enter_overwrite(self, world):
        _, server, client, _, root = world
        a = server.table.create("a")
        b = server.table.create("b")
        client.enter(root, "name", a)
        client.enter(root, "name", b, overwrite=True)
        assert client.lookup(root, "name") == b

    def test_remove(self, world):
        _, server, client, _, root = world
        target = server.table.create("x")
        client.enter(root, "doomed", target)
        client.remove(root, "doomed")
        with pytest.raises(NameNotFound):
            client.lookup(root, "doomed")

    def test_remove_missing(self, world):
        _, _, client, _, root = world
        with pytest.raises(NameNotFound):
            client.remove(root, "ghost")

    def test_list_sorted(self, world):
        _, server, client, _, root = world
        for name in ("zebra", "alpha", "monkey"):
            client.enter(root, name, server.table.create(name))
        assert client.list(root) == ["alpha", "monkey", "zebra"]

    def test_list_empty(self, world):
        _, _, client, _, root = world
        assert client.list(root) == []

    def test_name_validation(self, world):
        _, server, client, _, root = world
        target = server.table.create("x")
        with pytest.raises(BadRequest):
            client.enter(root, "", target)
        with pytest.raises(BadRequest):
            client.enter(root, "a/b", target)
        with pytest.raises(BadRequest):
            client.enter(root, "x" * 300, target)


class TestRights:
    def test_lookup_only_capability(self, world):
        _, server, client, _, root = world
        target = server.table.create("x")
        client.enter(root, "entry", target)
        reader = client.restrict(root, R_LOOKUP)
        assert client.lookup(reader, "entry") == target
        with pytest.raises(PermissionDenied):
            client.enter(reader, "new", target)
        with pytest.raises(PermissionDenied):
            client.remove(reader, "entry")

    def test_modify_only_capability(self, world):
        _, server, client, _, root = world
        target = server.table.create("x")
        writer = client.restrict(root, R_MODIFY)
        client.enter(writer, "new", target)
        with pytest.raises(PermissionDenied):
            client.lookup(writer, "new")


class TestStoredCapabilitiesAreOpaque:
    def test_any_capability_kind_storable(self, world):
        """'The capabilities within a directory need not all be file
        capabilities' — the directory never inspects what it stores."""
        net, server, client, client_nic, root = world
        files = FlatFileServer(Nic(net), rng=RandomSource(seed=5)).start()
        fclient = FlatFileClient(client_nic, files.put_port,
                                 rng=RandomSource(seed=6))
        file_cap = fclient.create(b"file data")
        subdir_cap = client.create_directory()
        client.enter(root, "file", file_cap)
        client.enter(root, "dir", subdir_cap)
        assert client.lookup(root, "file") == file_cap
        assert client.lookup(root, "dir") == subdir_cap

    def test_restricted_capability_stored_verbatim(self, world):
        net, server, client, client_nic, root = world
        files = FlatFileServer(Nic(net), rng=RandomSource(seed=7)).start()
        fclient = FlatFileClient(client_nic, files.put_port,
                                 rng=RandomSource(seed=8))
        cap = fclient.create(b"x")
        read_only = fclient.restrict(cap, 0x01)
        client.enter(root, "ro", read_only)
        assert client.lookup(root, "ro").rights == Rights(0x01)


class TestPathResolution:
    def test_single_server_path(self, world):
        _, server, client, client_nic, root = world
        a = client.create_directory(root, "a")
        b = client.create_directory(a, "b")
        leaf = server.table.create("leaf")
        client.enter(b, "c", leaf)
        found = resolve_path(client_nic, root, "a/b/c", rng=RandomSource(seed=9))
        assert found == leaf

    def test_transparent_multi_server_walk(self, world):
        """§3.4's transparency: the walk hops to a second directory server
        without the client doing anything special."""
        net, server, client, client_nic, root = world
        other_server = DirectoryServer(Nic(net), rng=RandomSource(seed=10)).start()
        other_client = DirectoryClient(
            client_nic, other_server.put_port, rng=RandomSource(seed=11)
        )
        # root/far -> directory on the OTHER server; far/deep -> leaf.
        far = other_client.call(DIR_CREATE).capability
        leaf = other_server.table.create("remote leaf")
        other_client.enter(far, "deep", leaf)
        client.enter(root, "far", far)
        found = resolve_path(client_nic, root, "far/deep",
                             rng=RandomSource(seed=12))
        assert found == leaf
        assert found.port == other_server.put_port
        assert found.port != server.put_port

    def test_path_with_extra_slashes(self, world):
        _, server, client, client_nic, root = world
        a = client.create_directory(root, "a")
        leaf = server.table.create("leaf")
        client.enter(a, "x", leaf)
        assert resolve_path(client_nic, root, "/a//x/",
                            rng=RandomSource(seed=13)) == leaf

    def test_empty_path_returns_root(self, world):
        _, _, _, client_nic, root = world
        assert resolve_path(client_nic, root, "", rng=RandomSource(seed=14)) == root

    def test_missing_component_raises(self, world):
        _, _, _, client_nic, root = world
        with pytest.raises(NameNotFound):
            resolve_path(client_nic, root, "no/such", rng=RandomSource(seed=15))


class TestLogRefusal:
    """A mutation the write-ahead log refuses — the disk fills while the
    ENTER or REMOVE is being logged — is undone in memory too, so a live
    LOOKUP, a retry and a reboot from the disk all tell the same story."""

    #: Long names: a delta record several times a commit record's size,
    #: so a filling disk refuses the handler's append, not the commit.
    NAME = "%02d" + "n" * 200

    def durable_world(self):
        net = SimNetwork()
        disk = VirtualDisk(64)
        server = DirectoryServer.durable(
            Nic(net), disk=disk, rng=RandomSource(seed=1)).start()
        client = DirectoryClient(
            Nic(net), server.put_port, rng=RandomSource(seed=2),
            expect_signature=server.signature_image,
        )
        return net, disk, server, client, server.create_root()

    @staticmethod
    def fill(disk):
        while disk.used_blocks < disk.n_blocks:
            disk.allocate()

    @staticmethod
    def names_after_reboot(net, disk, server, number):
        server.stop()
        reborn = DirectoryServer(
            Nic(net), get_port=server.get_port, rng=RandomSource(seed=3),
            store=DurableStore(disk, codec=DirectoryCodec()), dedup=True,
        )
        report = reborn.reboot()
        assert not report.suspect
        return set(reborn.table._entry(number).data.entries)

    def test_a_refused_enter_is_nowhere(self):
        net, disk, server, client, root = self.durable_world()
        self.fill(disk)
        for i in range(20):
            name = self.NAME % i
            try:
                client.enter(root, name, root)
            except OutOfSpace:
                break
        else:
            pytest.fail("the disk never filled")
        with pytest.raises(NameNotFound):
            client.lookup(root, name)
        with pytest.raises(OutOfSpace):  # not NameExists
            client.enter(root, name, root)
        names = self.names_after_reboot(net, disk, server, root.object)
        assert names == {self.NAME % j for j in range(i)}

    def test_a_refused_remove_is_nowhere(self):
        net, disk, server, client, root = self.durable_world()
        entered = {self.NAME % i for i in range(20)}
        for name in sorted(entered):
            client.enter(root, name, root)
        self.fill(disk)
        for name in sorted(entered):
            try:
                client.remove(root, name)
            except OutOfSpace:
                break
            entered.discard(name)
        else:
            pytest.fail("the disk never filled")
        assert client.lookup(root, name) == root
        with pytest.raises(OutOfSpace):  # not NameNotFound
            client.remove(root, name)
        assert self.names_after_reboot(
            net, disk, server, root.object) == entered
