"""Integration: the whole §3 server suite composed into one system.

One network, several machines, every server the paper describes, driven
through realistic multi-server workflows.
"""

import pytest

from repro.crypto.randomsrc import RandomSource
from repro.errors import InsufficientFunds, InvalidCapability, PermissionDenied
from repro.kernel.machine import Machine
from repro.net.network import SimNetwork
from repro.servers.bank import BankClient, BankServer
from repro.servers.block import BlockClient, BlockServer
from repro.servers.directory import DirectoryClient, DirectoryServer, resolve_path
from repro.servers.flatfile import FlatFileClient, FlatFileServer
from repro.servers.multiversion import MultiversionClient, MultiversionFileServer
from repro.servers.unixfs import UnixFs

pytestmark = pytest.mark.integration


@pytest.fixture
def system():
    """Three machines: storage, services, and a user workstation."""
    net = SimNetwork()
    storage = Machine(net, rng=RandomSource(seed=1), name="storage")
    services = Machine(net, rng=RandomSource(seed=2), name="services")
    workstation = Machine(net, rng=RandomSource(seed=3), name="workstation",
                          with_memory_server=False)

    blocks = BlockServer(storage.nic, rng=RandomSource(seed=4)).start()
    files = FlatFileServer(
        storage.nic,
        block_client=BlockClient(storage.nic, blocks.put_port,
                                 rng=RandomSource(seed=5)),
        rng=RandomSource(seed=6),
    ).start()
    dirs = DirectoryServer(services.nic, rng=RandomSource(seed=7)).start()
    mv = MultiversionFileServer(services.nic, rng=RandomSource(seed=8)).start()
    bank = BankServer(services.nic, rng=RandomSource(seed=9)).start()

    return {
        "net": net,
        "storage": storage,
        "services": services,
        "workstation": workstation,
        "blocks": blocks,
        "files": files,
        "dirs": dirs,
        "mv": mv,
        "bank": bank,
    }


class TestPaperWalkthrough:
    def test_the_paper_example_end_to_end(self, system):
        """§2.3's running example: create a file, write data, give another
        client read (but not modify) permission."""
        ws = system["workstation"]
        files = system["files"]
        fclient = FlatFileClient(ws.nic, files.put_port, rng=RandomSource(seed=10))
        cap = fclient.create()
        fclient.write(cap, 0, b"some data written by the first client")
        read_only = fclient.restrict(cap, 0x01)

        # "Another client": a different machine entirely.
        other = Machine(system["net"], rng=RandomSource(seed=11),
                        with_memory_server=False)
        other_client = FlatFileClient(other.nic, files.put_port,
                                      rng=RandomSource(seed=12))
        assert other_client.read(read_only, 0, 9) == b"some data"
        with pytest.raises(PermissionDenied):
            other_client.write(read_only, 0, b"vandalism")

    def test_directory_tree_spanning_servers(self, system):
        """Paths hop between directory servers and end at file servers,
        all invisible to the user."""
        ws = system["workstation"]
        dirs = system["dirs"]
        files = system["files"]
        dclient = DirectoryClient(ws.nic, dirs.put_port, rng=RandomSource(seed=13))
        fclient = FlatFileClient(ws.nic, files.put_port, rng=RandomSource(seed=14))

        # A second directory server on the storage machine.
        from repro.servers.directory import DIR_CREATE

        dirs2 = DirectoryServer(system["storage"].nic,
                                rng=RandomSource(seed=15)).start()
        dclient2 = DirectoryClient(ws.nic, dirs2.put_port,
                                   rng=RandomSource(seed=16))

        root = dirs.create_root()
        home = dclient.create_directory(root, "home")
        remote_dir = dclient2.call(DIR_CREATE).capability
        dclient.enter(home, "remote", remote_dir)
        file_cap = fclient.create(b"distributed!")
        dclient2.enter(remote_dir, "data.txt", file_cap)

        found = resolve_path(ws.nic, root, "home/remote/data.txt",
                             rng=RandomSource(seed=17))
        assert found == file_cap
        assert fclient.read(found, 0, 12) == b"distributed!"

    def test_unixfs_over_the_distributed_stack(self, system):
        ws = system["workstation"]
        root = system["dirs"].create_root()
        fs = UnixFs(ws.nic, root, system["files"].put_port,
                    rng=RandomSource(seed=18))
        fs.mkdir("project")
        fd = fs.open("project/notes.md", "a")
        fs.write(fd, b"# Amoeba notes\n")
        fs.write(fd, b"capabilities are bearer tokens\n")
        fs.close(fd)
        fd = fs.open("project/notes.md", "r")
        assert fs.read(fd, 14) == b"# Amoeba notes"
        assert fs.stat("project/notes.md")["size"] == 46

    def test_editing_session_with_versions(self, system):
        """A realistic multiversion flow: draft, commit, concurrent edits,
        conflict, retry."""
        ws = system["workstation"]
        mv = system["mv"]
        mvc = MultiversionClient(ws.nic, mv.put_port, rng=RandomSource(seed=19))
        doc = mvc.create_file()

        v1, _ = mvc.new_version(doc)
        mvc.write(v1, 0, b"Draft 1 of the ICDCS paper")
        mvc.commit(v1)

        alice, _ = mvc.new_version(doc)
        bob, _ = mvc.new_version(doc)
        mvc.write(alice, 0, b"Alice edit")
        mvc.write(bob, 6, b"Bob's edit")
        mvc.commit(bob)
        from repro.errors import VersionConflict

        with pytest.raises(VersionConflict):
            mvc.commit(alice)
        retry, base = mvc.new_version(doc)
        assert base == 2
        mvc.write(retry, 0, b"Alice ")
        mvc.commit(retry)
        assert mvc.n_versions(doc) == 4
        assert mvc.read(doc, 0, 16) == b"Alice Bob's edit"

    def test_economy_funds_the_storage(self, system):
        """Bank + charging file server, three machines apart."""
        from repro.servers.bank import R_DEPOSIT, R_INSPECT, R_WITHDRAW
        from repro.servers.charging import ChargingFlatFileServer
        from repro.servers.flatfile import FILE_CREATE

        net = system["net"]
        ws = system["workstation"]
        bank = system["bank"]
        central = bank.create_account({"USD": 1_000}, mint_right=True)
        revenue = bank.create_account()
        charging = ChargingFlatFileServer(
            system["storage"].nic,
            bank_client=BankClient(system["storage"].nic, bank.put_port,
                                   rng=RandomSource(seed=20)),
            revenue_cap=revenue,
            price=1,
            charge_unit=512,
            rng=RandomSource(seed=21),
        ).start()
        bclient = BankClient(ws.nic, bank.put_port, rng=RandomSource(seed=22))
        wallet = bclient.open_account()
        bclient.transfer(central, wallet, "USD", 5)
        pay = bclient.restrict(wallet, R_WITHDRAW | R_DEPOSIT | R_INSPECT)
        fclient = FlatFileClient(ws.nic, charging.put_port,
                                 rng=RandomSource(seed=23))
        cap = fclient.call(FILE_CREATE, data=b"paid bytes",
                           extra_caps=(pay,)).capability
        assert bclient.balance(wallet)["USD"] == 4
        # Four remaining dollars buy four more 512-byte units; six are
        # refused — running out of money IS the quota.
        from repro.servers.flatfile import FILE_WRITE

        with pytest.raises(InsufficientFunds):
            fclient.call(
                FILE_WRITE,
                capability=cap,
                offset=0,
                data=b"x" * (6 * 512),
                extra_caps=(pay,),
            )


class TestCrossMachineProcesses:
    def test_parent_builds_child_remotely(self, system):
        """§3.1 remote process creation across the simulated LAN."""
        ws = Machine(system["net"], rng=RandomSource(seed=24),
                     with_memory_server=False, name="parent")
        target = system["storage"]
        memory = ws.memory_client(remote_port=target.memory_port)
        text = memory.create_segment(256, initial=b"program text here")
        data = memory.create_segment(128, initial=b"initialised data")
        stack = memory.create_segment(512)
        child = memory.make_process("remote-child", [text, data, stack])
        assert memory.start(child) == "running"
        info = memory.process_info(child)
        assert "remote-child" in info and "segments=3" in info
        assert memory.stop(child) == "stopped"


class TestSystemWideRevocation:
    def test_refresh_cascades_nowhere_else(self, system):
        """Revoking one object must not disturb any other object, even
        under heavy sharing."""
        ws = system["workstation"]
        files = system["files"]
        fclient = FlatFileClient(ws.nic, files.put_port, rng=RandomSource(seed=25))
        caps = [fclient.create(b"file %d" % i) for i in range(5)]
        shared = [fclient.restrict(c, 0x01) for c in caps]
        fresh2 = fclient.refresh(caps[2])
        for i, cap in enumerate(shared):
            if i == 2:
                with pytest.raises(InvalidCapability):
                    fclient.read(cap, 0, 6)
            else:
                assert fclient.read(cap, 0, 6) == b"file %d" % i
        assert fclient.read(fresh2, 0, 6) == b"file 2"
