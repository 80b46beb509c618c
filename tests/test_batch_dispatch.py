"""Batch dispatch: one ingress run per ``_handle_frames`` call.

These tests were written against ``ObjectServer(workers=N)``.  The pool
is gone; what they checked that was not about threads — every reply of a
batch correct, exact request counts, revocation inside a batch, sealed
and multi-capability requests in a batch — they now check on the one
dispatch path that is left.  The class and test names are the
historical ones.
"""

import threading

import pytest

from repro.core.rights import NO_RIGHTS
from repro.crypto.randomsrc import RandomSource
from repro.errors import STATUS_OK, PortNotLocated
from repro.ipc import stdops
from repro.ipc.rpc import trans, trans_many
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic

OP_RECORD = USER_BASE


class RecordingServer(ObjectServer):
    """Echoes, while recording concurrency and the threads it ran on."""

    service_name = "batch dispatch probe"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._probe_lock = threading.Lock()
        self.active_by_object = {}
        self.max_active_by_object = {}
        self.max_active_global = 0
        self.handled_threads = set()

    def _enter(self, number):
        with self._probe_lock:
            active = self.active_by_object.get(number, 0) + 1
            self.active_by_object[number] = active
            peak = self.max_active_by_object.get(number, 0)
            if active > peak:
                self.max_active_by_object[number] = active
            total = sum(self.active_by_object.values())
            if total > self.max_active_global:
                self.max_active_global = total
            self.handled_threads.add(threading.get_ident())

    def _exit(self, number):
        with self._probe_lock:
            self.active_by_object[number] -= 1

    @command(OP_RECORD, needs=NO_RIGHTS)
    def _record(self, ctx):
        self._enter(ctx.entry.number)
        try:
            return ctx.ok(data=ctx.request.data)
        finally:
            self._exit(ctx.entry.number)


@pytest.fixture
def world():
    net = SimNetwork(synchronous=False, auto_drain=False)
    server = RecordingServer(Nic(net), rng=RandomSource(seed=3)).start()
    client = Nic(net)
    return net, server, client


class TestWorkerPool:
    def test_batch_replies_all_correct(self, world):
        net, server, client = world
        caps = [server.table.create("obj-%d" % i) for i in range(8)]
        requests = [
            Message(
                command=OP_RECORD,
                capability=caps[i % len(caps)],
                data=b"payload-%d" % i,
            )
            for i in range(32)
        ]
        replies = trans_many(
            client, server.put_port, requests, RandomSource(seed=4)
        )
        assert [r.data for r in replies] == [r.data for r in requests]
        assert all(r.status == STATUS_OK for r in replies)

    def test_capability_less_frames_share_serial_bucket(self, world):
        net, server, client = world
        cap = server.table.create("lone")
        requests = [
            Message(command=OP_RECORD, capability=cap, data=b"with-cap"),
            Message(command=OP_RECORD, data=b"no-cap"),  # BadRequest path
            Message(command=stdops.STD_TOUCH, capability=cap),
        ] * 4
        replies = trans_many(
            client, server.put_port, requests, RandomSource(seed=6)
        )
        assert len(replies) == 12
        for i, reply in enumerate(replies):
            if i % 3 == 1:
                assert reply.status != STATUS_OK  # missing capability
            else:
                assert reply.status == STATUS_OK

    def test_request_counts_still_exact(self, world):
        net, server, client = world
        caps = [server.table.create(i) for i in range(4)]
        requests = [
            Message(command=OP_RECORD, capability=caps[i % 4], data=b"n")
            for i in range(20)
        ]
        trans_many(client, server.put_port, requests, RandomSource(seed=7))
        assert server.request_counts[OP_RECORD] == 20

    def test_stop_shuts_pool_down_and_restart_works(self, world):
        net, server, client = world
        cap = server.table.create("x")
        request = Message(command=OP_RECORD, capability=cap, data=b"again")
        server.stop()
        with pytest.raises(PortNotLocated):
            trans(client, server.put_port, request, RandomSource(seed=8))
        server.start()
        reply = trans(client, server.put_port, request, RandomSource(seed=8))
        assert reply.data == b"again"
        server.stop()


class TestWorkerPoolWithStdOps:
    def test_refresh_under_pool_revokes(self, world):
        """STD_REFRESH dispatched inside a batch still revokes: the old
        capability fails afterwards, the fresh one works."""
        net, server, client = world
        cap = server.table.create("precious")
        rng = RandomSource(seed=12)
        refresh = Message(command=stdops.STD_REFRESH, capability=cap)
        use_old = Message(command=OP_RECORD, capability=cap, data=b"old")
        replies = trans_many(
            client, server.put_port, [refresh], rng
        )
        fresh = replies[0].capability
        assert fresh is not None
        after = trans_many(
            client,
            server.put_port,
            [
                Message(command=OP_RECORD, capability=fresh, data=b"new"),
                use_old,
            ],
            rng,
        )
        assert after[0].status == STATUS_OK
        assert after[1].status != STATUS_OK  # revoked


class TestSealedBatchesStaySerial:
    def test_mixed_sealed_and_plaintext_batch_keeps_object_affinity(self):
        """A batch mixing sealed and plaintext requests for the same
        objects: every reply correct (the sealed ones sealed again for
        the client), all on the delivering thread, one after another —
        and, with a sealer configured, still one bulk egress."""
        from repro.softprot.cache import (
            ClientCapabilityCache,
            ServerCapabilityCache,
        )
        from repro.softprot.matrix import CapabilitySealer, KeyMatrix

        net = SimNetwork(synchronous=False, auto_drain=False)
        matrix = KeyMatrix(rng=RandomSource(seed=20))
        server_nic = Nic(net)
        server = RecordingServer(
            server_nic,
            rng=RandomSource(seed=21),
            sealer=CapabilitySealer(
                matrix.view(server_nic.address),
                server_cache=ServerCapabilityCache(),
            ),
        ).start()
        bulk_sizes = []
        bulk = server_nic.put_owned_unicast_bulk
        server_nic.put_owned_unicast_bulk = lambda pairs: (
            bulk_sizes.append(len(pairs)), bulk(pairs))[1]
        client_nic = Nic(net)
        client_sealer = CapabilitySealer(
            matrix.view(client_nic.address),
            client_cache=ClientCapabilityCache(),
        )
        caps = [server.table.create("obj-%d" % i) for i in range(4)]
        requests = []
        for i in range(16):
            plain = Message(
                command=OP_RECORD, capability=caps[i % 4], data=b"p%d" % i
            )
            if i % 2:
                requests.append(
                    client_sealer.seal_message(plain, server_nic.address)
                )
            else:
                requests.append(plain)
        replies = trans_many(
            client_nic,
            server.put_port,
            requests,
            RandomSource(seed=22),
        )
        assert [r.data for r in replies] == [b"p%d" % i for i in range(16)]
        assert all(r.status == STATUS_OK for r in replies)
        assert bulk_sizes == [16]
        # Never two handlers in flight, one thread only.
        assert server.max_active_global == 1
        assert max(server.max_active_by_object.values()) == 1
        assert server.handled_threads == {threading.get_ident()}
        server.stop()


class TestMultiObjectRequestsStaySerial:
    def test_batch_with_extra_caps_dispatches_serially(self):
        """Requests carrying extra_caps (a bank transfer's payee, a
        directory install's target) name several objects; a batch of
        them is answered in order, one handler at a time."""
        net = SimNetwork(synchronous=False, auto_drain=False)
        server = RecordingServer(Nic(net), rng=RandomSource(seed=30)).start()
        client = Nic(net)
        caps = [server.table.create("obj-%d" % i) for i in range(4)]
        requests = []
        for i in range(16):
            changes = {"command": OP_RECORD, "capability": caps[i % 4],
                       "data": b"m%d" % i}
            if i % 3 == 0:
                changes["extra_caps"] = (caps[(i + 1) % 4],)
            requests.append(Message(**changes))
        replies = trans_many(
            client, server.put_port, requests, RandomSource(seed=31),
        )
        assert [r.data for r in replies] == [b"m%d" % i for i in range(16)]
        assert all(r.status == STATUS_OK for r in replies)
        assert server.max_active_global == 1
        assert server.handled_threads == {threading.get_ident()}
        server.stop()
