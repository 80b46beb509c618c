"""The transaction's call budget: Python calls into ``repro``, counted.

No function dominates a profile of the transaction path; what a
transaction costs is how many Python frames it runs.  This module counts
them with ``sys.setprofile`` — every ``call`` event whose code lives in
``src/repro``, or was generated with no source file (a dataclass's
``__init__``, a named tuple's ``__new__``) — over two fixed scripts,
and asserts each count exactly, as ``make loc`` does for lines.  List,
dict and set comprehensions are not counted: Python 3.12 inlines them
(PEP 709) where 3.11 gives each its own frame, and the count must be
the same on every supported interpreter.  The scripts:

* ``echo``: :data:`ECHOES` synchronous echoes (``trans`` against an
  echo server on a synchronous ``SimNetwork``, the ``sim_echo``
  workload's world).  A multiple of ``REPLY_BLOCK``, so the reply-pool
  refills are counted whole;
* ``durable_enter``: one ENTER on a durable directory server (the
  ``durable_mutate`` workload's world), after a fixed warm-up;
* ``durable_lookup``: one LOOKUP on the same server after the same
  warm-up — the read path, whose reply flushes nothing and takes no
  log lock;
* ``retry_failover``: :data:`ECHOES` echoes the ``lossy_failover``
  workload's way — ``trans`` through a located replica set, with a
  jittered :class:`RetryPolicy`, against replicas with duplicate
  suppression on — on a fault-free wire, so no wait, retransmission
  or failover runs and the count is the at-least-once lane's toll.

A change that lowers a count lowers its number in :data:`BUDGET`; one
that must raise it raises the number in the same diff and says why.  A
failure prints the per-function table, and so does ``make calls``
(this file run as a script).  The echo handler lives here, outside
``src/repro``: the budget is the primitive's, not the work it manages.
"""

import collections
import os
import sys

import repro
from repro.crypto.randomsrc import RandomSource
from repro.disk.virtualdisk import VirtualDisk
from repro.ipc.locate import Locator
from repro.ipc.replica import ReplicaObjectServer, ReplicatedObjectServer
from repro.ipc.rpc import RetryPolicy, trans
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import REPLY_BLOCK, Nic
from repro.servers.directory import DirectoryClient, DirectoryServer

SRC = os.path.join(os.path.dirname(os.path.abspath(repro.__file__)), "")

#: Synchronous echoes per count (and per warm-up before it).
ECHOES = 400

#: Exact calls into ``repro`` per script: all :data:`ECHOES` echoes
#: (24.25 each), the one durable ENTER (55 before its per-request tolls
#: went: a ``Rights`` built per lookup, a two-frame ``Message``, the
#: WAL's header and range-check helpers), the one durable LOOKUP, and all
#: :data:`ECHOES` retried replica echoes (31.25 each; 36.25 before the
#: at-least-once tolls were combined).
BUDGET = {"echo": 9700, "durable_enter": 48, "durable_lookup": 37,
          "retry_failover": 12500}

#: Code objects that are frames on 3.11 and inlined from 3.12 on.
COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def count_calls(run):
    """Python calls into ``repro`` while ``run()`` runs, per function
    (``path:qualname``, the path relative to ``src/repro``),
    comprehensions left out."""
    counts = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_name in COMPREHENSIONS:
                return
            path = code.co_filename
            if path.startswith(SRC):
                counts[path[len(SRC):] + ":" + code.co_qualname] += 1
            elif path == "<string>":
                counts[path + ":" + code.co_qualname] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return counts


class EchoServer(ObjectServer):
    service_name = "budget echo"

    @command(USER_BASE)
    def _echo(self, ctx):
        return ctx.ok(data=ctx.request.data)


def count_echo():
    net = SimNetwork()
    server = EchoServer(Nic(net), rng=RandomSource(seed=1)).start()
    server.count_requests = False
    client = Nic(net)
    rng = RandomSource(seed=2)
    port, expect = server.put_port, server.signature_image
    request = Message(command=USER_BASE, data=b"payload")

    def echoes():
        for _ in range(ECHOES):
            reply = trans(client, port, request, rng, expect_signature=expect)
            assert reply.data == b"payload"

    echoes()  # warm: every lazy table filled, the pool in its cycle
    return count_calls(echoes)


class EchoReplica(ReplicaObjectServer):
    service_name = "budget echo replica"

    @command(USER_BASE)
    def _echo(self, ctx):
        return ctx.ok(data=ctx.request.data)


def count_retry_failover():
    net = SimNetwork()
    service = ReplicatedObjectServer(
        net, replicas=3, rng=RandomSource(seed=1), server_cls=EchoReplica,
        server_kwargs={"dedup": True},
    ).start()
    for server in service.servers:
        server.count_requests = False
    client = Nic(net)
    rng = RandomSource(seed=2)
    locator = Locator(client, rng=RandomSource(seed=3))
    policy = RetryPolicy(attempts=12, seed=1)
    port, expect = service.put_port, service.signature.public
    replicas = locator.locate(port)
    request = Message(command=USER_BASE, data=b"payload")

    def echoes():
        for _ in range(ECHOES):
            reply = trans(client, port, request, rng, expect_signature=expect,
                          dst_machine=replicas, retry=policy, locator=locator)
            assert reply.data == b"payload"

    echoes()
    return count_calls(echoes)


def durable_directory():
    """A durable directory server and a client, warmed by 24 ENTERs;
    returns ``(client, root, target)``."""
    net = SimNetwork()
    server = DirectoryServer.durable(
        Nic(net), disk=VirtualDisk(4096), rng=RandomSource(seed=1)).start()
    server.count_requests = False
    root = server.create_root()
    client = DirectoryClient(
        Nic(net), server.put_port, rng=RandomSource(seed=2),
        expect_signature=server.signature_image,
    )
    target = client.create_directory()
    for i in range(24):
        client.enter(root, "warm-%02d" % i, target)
    return client, root, target


def count_durable_enter():
    client, root, target = durable_directory()
    counts = count_calls(lambda: client.enter(root, "counted", target))
    assert client.lookup(root, "counted") == target
    return counts


def count_durable_lookup():
    client, root, target = durable_directory()
    found = []
    counts = count_calls(lambda: found.append(client.lookup(root, "warm-00")))
    assert found == [target]
    return counts


SCRIPTS = {"echo": count_echo, "durable_enter": count_durable_enter,
           "durable_lookup": count_durable_lookup,
           "retry_failover": count_retry_failover}


def table(counts, per=1):
    """The per-function table, most-called first, per ``per`` runs."""
    rows = ["%10.4f  %s" % (n / per, name) for name, n in counts.most_common()]
    rows.append("%10.4f  total" % (sum(counts.values()) / per))
    return "\n".join(rows)


def check(name):
    counts = SCRIPTS[name]()
    total = sum(counts.values())
    assert total == BUDGET[name], (
        "%s made %d calls into repro, the budget says %d:\n%s"
        % (name, total, BUDGET[name], table(counts)))


def test_echo_budget():
    assert ECHOES % REPLY_BLOCK == 0
    assert BUDGET["echo"] <= 25 * ECHOES  # the bar: <= 25 calls an echo
    check("echo")


def test_durable_enter_budget():
    check("durable_enter")


def test_durable_lookup_budget():
    check("durable_lookup")


def test_retry_failover_budget():
    check("retry_failover")


def test_a_durable_enter_writes_its_group_once():
    """The commit record carries the ENTER's mutation to the medium in
    one tail write; no second flush follows it."""
    counts = SCRIPTS["durable_enter"]()
    assert counts["disk/wal.py:ChainLog._flush_tail"] == 1
    assert counts["disk/wal.py:ChainLog.flush"] == 0


def test_a_durable_lookup_writes_nothing():
    """A read logs nothing, so its reply path's flush finds nothing to
    write (and, testing before it locks, takes no log lock)."""
    counts = SCRIPTS["durable_lookup"]()
    assert counts["disk/wal.py:ChainLog.flush"] == 1
    assert counts["disk/wal.py:ChainLog._flush_tail"] == 0
    assert counts["disk/virtualdisk.py:VirtualDisk.write"] == 0


if __name__ == "__main__":
    for name, script in SCRIPTS.items():
        per = 1 if name.startswith("durable") else ECHOES
        unit = name.split("_")[1].upper() if per == 1 else "echo"
        print("%s — calls into repro per %s (budget %d in all)" % (
            name, unit, BUDGET[name]))
        print(table(script(), per))
        print()
