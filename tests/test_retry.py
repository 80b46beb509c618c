"""Tests for at-least-once transactions (:class:`repro.ipc.rpc.RetryPolicy`).

The retry contracts:

* a retransmission reuses the same reply secret, so every copy of the
  request carries the same F(G') on the wire — the transaction id the
  server's duplicate suppression keys on;
* backoff waits live under the transaction's single ``timeout`` budget
  (wall time on real wires, virtual time on a DES station) and the
  deadline always wins;
* :meth:`AsyncTrans.cancel` withdraws the retransmit state and releases
  the reply port, even when a late duplicate reply arrives afterwards;
* a timed-out :class:`~repro.ipc.client.ServiceClient` call invalidates
  its locate cache entry, so the next call re-broadcasts LOCATE instead
  of unicasting at a dead machine.
"""

import random

import pytest

from repro.crypto.randomsrc import RandomSource
from repro.errors import PortNotLocated, RPCTimeout
from repro.ipc.client import ServiceClient
from repro.ipc.locate import Locator, install_locate_responder
from repro.ipc.rpc import AsyncTrans, RetryPolicy, trans, trans_many
from repro.ipc.stdops import USER_BASE
from repro.net.faults import FaultPlan, FaultSpec
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.net.sched import LatencyModel, VirtualClock
from repro.testing.world import EchoServer, World


def lossy_world(plan):
    w = World("synchronous", faults=plan)
    server = EchoServer(w.node(), rng=RandomSource(seed=1)).start()
    return w.net, server, w.node()


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=-1)
        with pytest.raises(ValueError):
            RetryPolicy(rto=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)

    def test_waits_grow_exponentially_up_to_cap(self):
        policy = RetryPolicy(attempts=6, rto=0.1, cap=0.5, multiplier=2.0,
                             jitter=0.0)
        assert policy.waits() == [0.1, 0.2, 0.4, 0.5, 0.5, 0.5]

    def test_jitter_stays_in_band_and_is_seeded(self):
        policy = RetryPolicy(attempts=8, rto=0.1, jitter=0.25, seed=3)
        waits = policy.waits()
        bases = RetryPolicy(attempts=8, rto=0.1, jitter=0.0).waits()
        for w, base in zip(waits, bases):
            assert base <= w < base * 1.25
        # Same seed, same schedule; successive draws differ.
        assert RetryPolicy(attempts=8, rto=0.1, jitter=0.25,
                           seed=3).waits() == waits
        assert policy.waits() != waits

    @pytest.mark.parametrize("config", [
        dict(),
        dict(attempts=8, rto=0.1, cap=0.5, multiplier=2.0, jitter=0.25, seed=3),
        dict(attempts=5, rto=0.003, cap=10.0, multiplier=1.7, jitter=0.0),
        dict(attempts=0, jitter=0.5, seed=9),
        dict(attempts=12, rto=0.05, cap=0.05, multiplier=1.0, jitter=1e-3,
             seed=11),
    ])
    def test_waits_match_the_reference_loop_bit_for_bit(self, config):
        # waits() precomputes the un-jittered ladder; the schedule (and
        # the RNG draw order seeded runs depend on) must be exactly what
        # the per-call loop produced.
        def reference_waits(policy, rng):
            out = []
            wait = policy.rto
            for _ in range(policy.attempts):
                w = wait
                if policy.jitter:
                    w *= 1.0 + rng.random() * policy.jitter
                out.append(w)
                wait = min(wait * policy.multiplier, policy.cap)
            return out

        policy = RetryPolicy(**config)
        rng = random.Random(config.get("seed", 0))
        for _ in range(200):
            got = policy.waits()
            assert got == reference_waits(policy, rng)
            got.append(None)  # a caller's list, never the shared ladder
        # No draw at all without jitter: the RNG stream is untouched.
        if not policy.jitter:
            assert policy._rng.getstate() == random.Random(
                config.get("seed", 0)).getstate()


def reference_state(seed, draws):
    """The RNG state after ``draws`` calls of ``random()`` — what a
    per-wait draw of every jittered schedule would leave."""
    rng = random.Random(seed)
    for _ in range(draws):
        rng.random()
    return rng.getstate()


class TestJitterDrawnOncePerTransaction:
    """A transaction draws its whole schedule's jitter at issue, in one
    call, whether or not it ever waits; the stream is the per-wait
    loop's, word for word."""

    def test_two_hundred_transactions_leave_the_reference_state(self):
        _, server, client = lossy_world(None)
        policy = RetryPolicy(attempts=12, jitter=0.25, seed=5)
        for i in range(200):
            trans(client, server.put_port, Message(command=USER_BASE),
                  rng=RandomSource(seed=i), retry=policy)
        assert policy._rng.getstate() == reference_state(5, 200 * 12)

    def test_a_waiting_transaction_draws_what_an_answered_one_does(self):
        lossy = FaultPlan(seed=1, drop=1.0)
        states = []
        for plan in (None, lossy):
            _, server, client = lossy_world(plan)
            policy = RetryPolicy(attempts=3, rto=0.001, cap=0.001, seed=7)
            try:
                trans(client, server.put_port, Message(command=USER_BASE),
                      rng=RandomSource(seed=2), timeout=0.05, retry=policy)
            except RPCTimeout:
                assert plan is lossy
            states.append(policy._rng.getstate())
        assert lossy.injected_drops == 4  # every wait ran: 1 + 3 copies
        assert states[0] == states[1] == reference_state(7, 3)

    def test_no_attempts_draw_nothing(self):
        _, server, client = lossy_world(None)
        policy = RetryPolicy(attempts=0, jitter=0.5, seed=9)
        trans(client, server.put_port, Message(command=USER_BASE),
              rng=RandomSource(seed=2), retry=policy)
        assert policy.waits() == []
        assert policy._rng.getstate() == reference_state(9, 0)


class TestTransRetry:
    def test_survives_heavy_request_loss(self):
        plan = FaultPlan(seed=7, drop=0.3)
        _, server, client = lossy_world(plan)
        for i in range(20):
            reply = trans(client, server.put_port,
                          Message(command=USER_BASE, data=b"%d" % i),
                          rng=RandomSource(seed=40 + i), timeout=5.0,
                          retry=RetryPolicy(attempts=10, seed=i))
            assert reply.data == b"%d" % i
        assert plan.injected_drops > 0

    def test_retransmissions_share_one_reply_port(self):
        plan = FaultPlan(seed=1)
        net, server, client = lossy_world(plan)
        plan.links = {client.address: FaultSpec(drop=0.6)}
        requests = []

        def tap(frame):
            if not frame.message.is_reply:
                requests.append(frame.message.reply)

        net.add_tap(tap)
        reply = trans(client, server.put_port,
                      Message(command=USER_BASE, data=b"once"),
                      rng=RandomSource(seed=5), timeout=5.0,
                      retry=RetryPolicy(attempts=10, seed=2))
        assert reply.data == b"once"
        assert len(requests) >= 2  # at least one retransmission happened
        assert len(set(requests)) == 1  # ... all carrying the same F(G')

    def test_without_retry_loss_is_fatal(self):
        plan = FaultPlan(seed=1, drop=1.0)
        _, server, client = lossy_world(plan)
        with pytest.raises(RPCTimeout):
            trans(client, server.put_port, Message(command=USER_BASE),
                  rng=RandomSource(seed=3), timeout=0.05)

    def test_unserved_port_still_raises_port_not_located(self):
        net = SimNetwork(faults=FaultPlan(seed=1))
        client = Nic(net)
        with pytest.raises(PortNotLocated):
            trans(client, 0xDEAD, Message(command=USER_BASE),
                  rng=RandomSource(seed=3),
                  retry=RetryPolicy(attempts=3))

    def test_timeout_error_reports_transmissions(self):
        plan = FaultPlan(seed=1, drop=1.0)
        _, server, client = lossy_world(plan)
        with pytest.raises(RPCTimeout, match="4 transmissions"):
            trans(client, server.put_port, Message(command=USER_BASE),
                  rng=RandomSource(seed=3), timeout=0.05,
                  retry=RetryPolicy(attempts=3, rto=0.001, jitter=0.0))

    def test_des_timeout_consumes_exactly_the_budget(self):
        # A never-answered retried transaction costs exactly `timeout`
        # virtual seconds: backoff never extends the deadline.
        net = SimNetwork(clock=VirtualClock(),
                         latency=LatencyModel(rtt_ms=2.8),
                         faults=FaultPlan(seed=1))
        blackhole = Nic(net)
        wire = blackhole.listen(1234)
        client = Nic(net)
        with pytest.raises(RPCTimeout):
            trans(client, wire, Message(command=USER_BASE),
                  rng=RandomSource(seed=3), timeout=0.75,
                  retry=RetryPolicy(attempts=5, rto=0.05, seed=1))
        assert client.clock.now == pytest.approx(0.75)


class TestAsyncTransRetry:
    def test_result_retries_under_loss(self):
        plan = FaultPlan(seed=9, drop=0.3)
        _, server, client = lossy_world(plan)
        pending = [
            AsyncTrans(client, server.put_port,
                       Message(command=USER_BASE, data=b"%d" % i),
                       rng=RandomSource(seed=70 + i),
                       retry=RetryPolicy(attempts=10, seed=i))
            for i in range(10)
        ]
        for i, at in enumerate(pending):
            assert at.result(timeout=5.0).data == b"%d" % i
        assert plan.injected_drops > 0

    def test_cancel_releases_reply_port(self):
        net = SimNetwork(faults=FaultPlan(seed=1))
        blackhole = Nic(net)
        wire = blackhole.listen(1234)
        client = Nic(net)
        at = AsyncTrans(client, wire, Message(command=USER_BASE),
                        rng=RandomSource(seed=3),
                        retry=RetryPolicy(attempts=5))
        at.cancel()
        # The GET is withdrawn: a late (duplicate) reply no longer lands.
        late = Message(dest=at.wire_reply, is_reply=True, data=b"late")
        assert not blackhole.put(late)
        assert at.poll() is None
        # Retransmit state is purged; collecting now times out cleanly
        # without sending anything further.
        sent_before = net.frames_sent
        with pytest.raises(RPCTimeout):
            at.result(timeout=0.01)
        assert net.frames_sent == sent_before

    def test_cancel_is_idempotent_and_after_result_is_noop(self):
        net = SimNetwork(faults=FaultPlan(seed=1))
        server = EchoServer(Nic(net), rng=RandomSource(seed=1)).start()
        client = Nic(net)
        at = AsyncTrans(client, server.put_port,
                        Message(command=USER_BASE, data=b"ok"),
                        rng=RandomSource(seed=3),
                        retry=RetryPolicy(attempts=2))
        assert at.result().data == b"ok"
        at.cancel()
        at.cancel()
        # The station stays healthy for the next transaction.
        reply = trans(client, server.put_port,
                      Message(command=USER_BASE, data=b"again"),
                      rng=RandomSource(seed=4))
        assert reply.data == b"again"

    def test_trans_many_with_retry_keeps_order(self):
        plan = FaultPlan(seed=3, drop=0.25)
        _, server, client = lossy_world(plan)
        requests = [Message(command=USER_BASE, data=b"%d" % i)
                    for i in range(16)]
        replies = trans_many(client, server.put_port, requests,
                             rng=RandomSource(seed=5), timeout=5.0,
                             retry=RetryPolicy(attempts=10, seed=4))
        assert [r.data for r in replies] == [b"%d" % i for i in range(16)]
        assert plan.injected_drops > 0


class TestClientTimeoutInvalidation:
    def test_rpc_timeout_invalidates_locate_cache(self):
        net = SimNetwork(faults=FaultPlan(seed=1))
        server = EchoServer(Nic(net), rng=RandomSource(seed=1)).start()
        install_locate_responder(server.node)
        client_nic = Nic(net)
        locator = Locator(client_nic, rng=RandomSource(seed=2))
        client = ServiceClient(client_nic, server.put_port,
                               rng=RandomSource(seed=3), locator=locator,
                               timeout=0.05)
        assert client.call(USER_BASE, data=b"warm").data == b"warm"
        assert locator.cache.get(server.put_port) is not None
        # Crash the server: its machine leaves the wire.
        net.detach(server.node.address)
        with pytest.raises(RPCTimeout):
            client.call(USER_BASE, data=b"dead")
        # The stale (port, machine) mapping is gone — the next call will
        # re-broadcast LOCATE rather than unicast at the dark machine.
        assert locator.cache.get(server.put_port) is None

    def test_recovery_after_server_restart(self):
        net = SimNetwork(faults=FaultPlan(seed=1))
        server = EchoServer(Nic(net), rng=RandomSource(seed=1)).start()
        install_locate_responder(server.node)
        client_nic = Nic(net)
        locator = Locator(client_nic, rng=RandomSource(seed=2))
        client = ServiceClient(client_nic, server.put_port,
                               rng=RandomSource(seed=3), locator=locator,
                               timeout=0.05)
        assert client.call(USER_BASE, data=b"up").data == b"up"
        net.detach(server.node.address)
        with pytest.raises(RPCTimeout):
            client.call(USER_BASE, data=b"down")
        # Respawn on a fresh machine serving the same put-port.
        respawn = EchoServer(Nic(net), rng=RandomSource(seed=1)).start()
        assert respawn.put_port == server.put_port
        install_locate_responder(respawn.node)
        assert client.call(USER_BASE, data=b"back").data == b"back"
        assert locator.cache.get(server.put_port) == respawn.node.address
