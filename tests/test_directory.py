"""Tests for the directory server (§3.4), including multi-server paths."""

import pytest

from repro.core.rights import Rights
from repro.crypto.randomsrc import RandomSource
from repro.errors import BadRequest, NameNotFound
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.servers.directory import (
    DIR_CREATE,
    DirectoryClient,
    DirectoryServer,
    resolve_path,
)
from repro.servers.flatfile import FlatFileClient, FlatFileServer
from test_wal_txn import history


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
    # Histories the model referees (test_wal_txn.py).
    test_enter_lookup = history(("enter", 0, "a", 1), ("lookup", 0, "a"))
    test_lookup_missing = history(("lookup", 0, "a"))
    test_enter_duplicate_refused = history(
        ("enter", 0, "a", 1), ("enter", 0, "a", 0))
    test_enter_overwrite = history(
        ("enter", 0, "a", 0), ("enter", 0, "a", 1, True), ("lookup", 0, "a"))
    test_remove = history(
        ("enter", 0, "a", 1), ("remove", 0, "a"), ("lookup", 0, "a"))
    test_remove_missing = history(("remove", 0, "a"))
    test_list_sorted = history(*[("enter", 0, name, 1) for name in "cab"],
                               ("listing", 0))
    test_list_empty = history(("listing", 0))

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
    test_lookup_only_capability = history(
        ("enter", 0, "a", 1), ("restrict", 0, 0x01), ("lookup", 2, "a"),
        ("enter", 2, "b", 1), ("remove", 2, "a"), ("listing", 2))
    test_modify_only_capability = history(
        ("restrict", 0, 0x02), ("enter", 2, "a", 1), ("lookup", 2, "a"),
        ("listing", 2))


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

    test_a_refused_enter_is_nowhere = history(
        ("fill", 0), *[("enter", 0, "d" * 160, 1, True)] * 4,
        ("lookup", 0, "d" * 160), ("reboot",), refused=True)
    test_a_refused_remove_is_nowhere = history(
        *[("enter", 0, name, 1) for name in ("a", "b", "c" * 24)],
        ("fill", 0), *[("remove", 0, name) for name in ("a", "b", "c" * 24)],
        ("lookup", 0, "c" * 24), ("reboot",), refused=True)
