"""Server-level crash/reboot tests: the durability contract end to end.

A durable :class:`DirectoryServer` is killed and a new incarnation is
booted on the same disk.  The table comes back, old capabilities pass
§2.2 check validation (unless the log's tail was suspect, in which case
they are *cleanly* rejected), and — the PR 8 satellite — a
retried non-idempotent request that straddles the restart must not
double-execute and must not replay a stale pre-crash reply.
"""

import pytest

from repro.crypto.randomsrc import RandomSource
from repro.disk.diskfaults import DiskFaultPlan
from repro.disk.virtualdisk import VirtualDisk
from repro.disk.wal import DurableStore
from repro.errors import AmoebaError, InvalidCapability
from repro.ipc.rpc import AsyncTrans, RetryPolicy
from repro.net.faults import FaultPlan, FaultSpec
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.servers.directory import (
    DIR_ENTER,
    Directory,
    DirectoryClient,
    DirectoryCodec,
    DirectoryServer,
)


def durable_world(plan_kwargs=None):
    plan = FaultPlan(seed=0, **(plan_kwargs or {}))
    net = SimNetwork(faults=plan)
    disk = VirtualDisk(8192)
    server = DirectoryServer.durable(
        Nic(net), disk, rng=RandomSource(seed=1)
    ).start()
    client_nic = Nic(net)
    return plan, net, disk, server, client_nic


def respawn_on(net, disk, old_server, seed=99):
    """A new server incarnation on the same disk and get-port."""
    incarnation = DirectoryServer(
        Nic(net),
        get_port=old_server.get_port,
        rng=RandomSource(seed=seed),
        store=DurableStore(disk, codec=DirectoryCodec()),
        dedup=True,
    )
    report = incarnation.reboot()
    incarnation.start()
    return incarnation, report


class TestRebootProtocol:
    def test_start_refuses_unrecovered_store(self):
        _, net, disk, server, _ = durable_world()
        server.create_root()
        server.stop()
        cold = DirectoryServer(
            Nic(net),
            get_port=server.get_port,
            rng=RandomSource(seed=2),
            store=DurableStore(disk, codec=DirectoryCodec()),
        )
        with pytest.raises(AmoebaError, match="reboot"):
            cold.start()
        cold.reboot()
        cold.start()  # now legal

    def test_reboot_requires_empty_table(self):
        _, net, disk, server, _ = durable_world()
        server.create_root()
        server.stop()
        cold = DirectoryServer(
            Nic(net),
            get_port=server.get_port,
            rng=RandomSource(seed=2),
            store=DurableStore(disk, codec=DirectoryCodec()),
        )
        cold.table.create(Directory())
        with pytest.raises(AmoebaError):
            cold.reboot()

    def test_reboot_without_store_refused(self):
        _, net, _, server, _ = durable_world()
        plain = DirectoryServer(Nic(net), rng=RandomSource(seed=3))
        with pytest.raises(AmoebaError):
            plain.reboot()

    def test_state_survives_kill_and_reboot(self):
        _, net, disk, server, client_nic = durable_world()
        client = DirectoryClient(
            client_nic, server.put_port, rng=RandomSource(seed=4),
            expect_signature=server.signature_image,
        )
        root = server.create_root()
        sub = client.create_directory(root, "projects")
        client.enter(root, "also", sub)
        server.stop()

        incarnation, report = respawn_on(net, disk, server)
        assert report.entries_restored == 2
        assert not report.suspect
        client2 = DirectoryClient(
            client_nic, incarnation.put_port, rng=RandomSource(seed=5),
            expect_signature=incarnation.signature_image,
        )
        # Capabilities minted by the dead incarnation still validate.
        assert sorted(client2.list(root)) == ["also", "projects"]
        assert client2.lookup(root, "also") == sub
        client2.enter(sub, "post-reboot", root)
        assert client2.list(sub) == ["post-reboot"]

    def test_checkpoint_then_reboot(self):
        _, net, disk, server, client_nic = durable_world()
        root = server.create_root()
        client = DirectoryClient(
            client_nic, server.put_port, rng=RandomSource(seed=4),
            expect_signature=server.signature_image,
        )
        for i in range(10):
            client.create_directory(root, "pre-%d" % i)
        server.checkpoint()
        for i in range(3):
            client.create_directory(root, "post-%d" % i)
        server.stop()

        incarnation, report = respawn_on(net, disk, server)
        assert report.entries_restored == 14  # root + 10 + 3
        client2 = DirectoryClient(
            client_nic, incarnation.put_port, rng=RandomSource(seed=5),
            expect_signature=incarnation.signature_image,
        )
        assert len(client2.list(root)) == 13


class TestDedupAcrossReboot:
    """The straddle: request executed, reply lost, server dies, client
    retries against the next incarnation."""

    def _straddle(self):
        plan, net, disk, server, client_nic = durable_world()
        root = server.create_root()
        target = server.table.create(Directory())

        # Drop the server->client reply: the request executes and the
        # durable commit lands, but the client never hears back.
        plan.links[(server.node.address, client_nic.address)] = FaultSpec(
            drop=1.0
        )
        at = AsyncTrans(
            client_nic,
            server.put_port,
            Message(
                command=DIR_ENTER, capability=root,
                data=b"paid", extra_caps=(target,),
            ),
            rng=RandomSource(seed=3),
            retry=RetryPolicy(attempts=6, seed=0),
        )
        assert list(server.table.lookup(root)[0].data.entries) == ["paid"]
        return plan, net, disk, server, client_nic, root, at

    def test_retry_replays_durable_reply_not_reexecutes(self):
        plan, net, disk, server, client_nic, root, at = self._straddle()
        server.stop()
        del plan.links[(server.node.address, client_nic.address)]

        incarnation, report = respawn_on(net, disk, server)
        assert len(report.commits) == 1

        # The replayed reply is re-stamped with the new incarnation's
        # signature, so the client's transport check still passes.
        at.expect_signature = incarnation.signature_image
        reply = at.result(timeout=2.0)
        assert reply.status == 0

        stats = incarnation.reply_cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 0
        # Exactly one entry: the retry did NOT double-execute.
        entries = incarnation.table.lookup(root)[0].data.entries
        assert list(entries) == ["paid"]

    def test_recovered_state_serves_new_clients(self):
        plan, net, disk, server, client_nic, root, at = self._straddle()
        server.stop()
        del plan.links[(server.node.address, client_nic.address)]
        at.cancel()

        incarnation, _ = respawn_on(net, disk, server)
        client = DirectoryClient(
            client_nic, incarnation.put_port, rng=RandomSource(seed=5),
            expect_signature=incarnation.signature_image,
        )
        assert client.list(root) == ["paid"]

    def test_suspect_stripe_rejects_stale_retry_cleanly(self):
        """(Id kept.)  A torn log tail: the pre-crash commit is
        *dropped* (never replay a reply from a suspect log) and the
        root capability's secret is regenerated — the retry is rejected
        with InvalidCapability instead of double-executing or replaying
        a possibly-inconsistent cached reply."""
        plan, net, disk, server, client_nic, root, at = self._straddle()

        # Tear a log write: a directory whose encoded form spans blocks
        # spills, and the second write of the group is a full block —
        # the tear lands mid-record and nothing later heals it.
        disk.faults = DiskFaultPlan(seed=5, torn_at={1})
        big = Directory()
        big.entries["n" * 600] = root
        server.table.create(big)
        disk.faults = None

        server.stop()
        del plan.links[(server.node.address, client_nic.address)]

        incarnation, report = respawn_on(net, disk, server)
        assert report.suspect
        assert not report.commits      # a suspect log's commits: dropped

        at.expect_signature = incarnation.signature_image
        reply = at.result(timeout=2.0)
        # Clean rejection: the regenerated secret fails §2.2 validation.
        assert reply.status == InvalidCapability.code

        # The pre-crash mutation itself was logged before the tear and
        # survived — still exactly one entry, no double-execution.
        fresh_root = incarnation.table.mint_for(root.object)
        entries = incarnation.table.lookup(fresh_root)[0].data.entries
        assert list(entries) == ["paid"]

        # A re-obtained capability (client "re-locates") works normally.
        client = DirectoryClient(
            client_nic, incarnation.put_port, rng=RandomSource(seed=6),
            expect_signature=incarnation.signature_image,
        )
        assert client.list(fresh_root) == ["paid"]

        # And a second reboot remembers all of that: the log scans
        # clean, the dropped commit stays dropped, the pre-crash
        # capability is still refused and the re-obtained one still works.
        incarnation.stop()
        third, report = respawn_on(net, disk, incarnation, seed=100)
        assert not report.suspect and not report.commits
        client = DirectoryClient(
            client_nic, third.put_port, rng=RandomSource(seed=7),
            expect_signature=third.signature_image,
        )
        with pytest.raises(InvalidCapability):
            client.list(root)
        assert client.list(fresh_root) == ["paid"]
