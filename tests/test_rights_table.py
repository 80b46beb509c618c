"""The §2.3 rights table, generated into one test.

Every operation declares the rights its capabilities must hold
(``@command(op, needs=..., extra=...)``) and ``ObjectServer._serve_frame``
admits them before the handler runs.  For every ``ObjectServer``
subclass under ``src/repro`` and every operation its
``rights_table()`` lists with ``needs`` or ``extra`` set, over a
synchronous world:

* a capability holding exactly ``needs`` (and an extra capability
  holding exactly ``extra``) is not refused with ``PermissionDenied``;
* each capability with one of those bits dropped is;
* an extra capability for another server's port is refused with
  ``InvalidCapability``.

And a static half: no ``@command`` handler under ``src/repro`` calls
``.lookup(`` itself, so admission stays the one place a capability is
validated on its way into an operation.
"""

import ast
import dataclasses
import os
import sys

import pytest

import repro
from repro.core.ports import Port
from repro.errors import AmoebaError, InvalidCapability, PermissionDenied
from repro.ipc.client import ServiceClient
from repro.ipc.replica import ReplicaObjectServer
from repro.ipc.server import ObjectServer
from repro.kernel.memory import MemoryServer, Segment
from repro.servers.bank import Account, BankClient, BankServer
from repro.servers.block import BlockServer
from repro.servers.charging import ChargingFlatFileServer
from repro.servers.directory import Directory, DirectoryServer
from repro.servers.flatfile import FlatFileServer
from repro.servers.multiversion import MultiversionFileServer, MVFile
from repro.testing.chaos import ChaosCounterServer
from repro.testing.world import EchoServer, World

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "benchmarks"))
# The servers docs/PAPER_MAP.md renders the table of.
from bench_claims import object_servers  # noqa: E402

SRC = os.path.dirname(repro.__file__)
#: A put-port no server in these worlds listens on.
FOREIGN = Port(0x0BADC0FFEE00)


def _charging(world):
    bank = BankServer(world.node()).start()
    return ChargingFlatFileServer(
        world.node(), BankClient(world.node(), bank.put_port),
        bank.create_account())


def _file(server):
    file = server._new_file()
    file.write(0, b"x")
    return file


#: Server class -> (build it on a world, a payload for one of its rows).
FACTORIES = {
    ObjectServer: (lambda world: ObjectServer(world.node()), lambda s: b"x"),
    EchoServer: (lambda world: EchoServer(world.node()), lambda s: b"x"),
    ReplicaObjectServer: (
        lambda world: ReplicaObjectServer(world.node()), lambda s: b"x"),
    ChaosCounterServer: (
        lambda world: ChaosCounterServer(world.node()), lambda s: 0),
    BankServer: (lambda world: BankServer(world.node()), lambda s: Account()),
    BlockServer: (
        lambda world: BlockServer(world.node()), lambda s: s.disk.allocate()),
    ChargingFlatFileServer: (_charging, _file),
    DirectoryServer: (
        lambda world: DirectoryServer(world.node()), lambda s: Directory()),
    FlatFileServer: (lambda world: FlatFileServer(world.node()), _file),
    MemoryServer: (
        lambda world: MemoryServer(world.node()), lambda s: Segment(16)),
    MultiversionFileServer: (
        lambda world: MultiversionFileServer(world.node()),
        lambda s: MVFile()),
}


def _bits(mask):
    return [1 << i for i in range(8) if int(mask) >> i & 1]


@pytest.mark.parametrize("server_class", object_servers(),
                         ids=lambda cls: cls.__name__)
def test_every_declared_right_is_admitted_and_enforced(server_class):
    assert server_class in FACTORIES, (
        "%s has no factory here: add one so its rights table is tested"
        % server_class.__name__)
    build, payload = FACTORIES[server_class]
    world = World("synchronous")
    server = build(world).start()
    client = ServiceClient(world.node(), server.put_port)

    def holding(mask):
        """A fresh row's capability holding exactly ``mask``."""
        owner = server.table.create(payload(server))
        return server.table.restrict(owner, mask)

    def refusal(op, header, extras=()):
        try:
            client.call(op, capability=header, extra_caps=extras)
        except AmoebaError as exc:
            return exc
        return None

    probed = 0
    for op, name, needs, extra in server_class.rights_table():
        if needs is None and extra is None:
            continue
        probed += 1
        label = "%s.%s" % (server_class.__name__, name)

        def header():
            return None if needs is None else holding(needs)

        extras = () if extra is None else (holding(extra),)
        assert not isinstance(refusal(op, header(), extras),
                              PermissionDenied), label
        for bit in _bits(needs or 0):
            dropped = holding(int(needs) & ~bit)
            assert isinstance(refusal(op, dropped, extras),
                              PermissionDenied), (label, bit)
        if extra is None:
            continue
        for bit in _bits(extra):
            dropped = holding(int(extra) & ~bit)
            assert isinstance(refusal(op, header(), (dropped,)),
                              PermissionDenied), (label, "extra", bit)
        foreign = dataclasses.replace(holding(extra), port=FOREIGN)
        assert isinstance(refusal(op, header(), (foreign,)),
                          InvalidCapability), (label, "foreign")
    assert probed  # the standard operations at least
    world.close()


def _is_command(decorator):
    return (isinstance(decorator, ast.Call)
            and getattr(decorator.func, "id", None) == "command")


def test_no_handler_validates_a_capability_itself():
    """Admission is the one validation site: no ``@command`` method
    under ``src/repro`` calls ``.lookup(``."""
    offenders = []
    for folder, _, names in os.walk(SRC):
        for name in names:
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path) as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if not (isinstance(node, ast.FunctionDef)
                        and any(map(_is_command, node.decorator_list))):
                    continue
                offenders.extend(
                    "%s:%d %s" % (os.path.relpath(path, SRC), call.lineno,
                                  node.name)
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and getattr(call.func, "attr", None) == "lookup")
    assert offenders == []
