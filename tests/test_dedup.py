"""Tests for server-side duplicate suppression (:class:`ReplyCache`).

The dedup contracts:

* the transaction id is ``(frame.src, F(G'))`` — both already on the
  wire, the src network-stamped and the reply port fresh per
  transaction yet stable across retransmissions;
* a retried non-idempotent operation (a bank transfer) executes exactly
  once: the duplicate replays the cached reply, error replies included;
* both cache dimensions are LRU-bounded;
* an intruder replaying a captured frame presents its *own* src, so it
  lands in its own cache bucket and can never read or disturb another
  principal's entries.
"""

import pytest

from repro.crypto.randomsrc import RandomSource
from repro.errors import InsufficientFunds
from repro.ipc.rpc import RetryPolicy
from repro.ipc.server import ReplyCache
from repro.net.faults import FaultPlan
from repro.net.intruder import Intruder
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.servers.bank import BANK_TRANSFER, BankClient, BankServer


class TestReplyCacheUnit:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            ReplyCache(per_client=0)
        with pytest.raises(ValueError):
            ReplyCache(clients=0)

    def test_miss_busy_store_hit(self):
        cache = ReplyCache()
        reply = Message(data=b"done", is_reply=True)
        assert cache.begin(1, 0xAB) == ("miss", [None])
        # While executing, duplicates are dropped, not replayed.
        assert cache.begin(1, 0xAB) == ("busy", None)
        cache.store(1, 0xAB, reply)
        verdict, cached = cache.begin(1, 0xAB)
        assert verdict == "hit" and cached is reply
        assert (cache.misses, cache.busy_drops, cache.hits) == (1, 1, 1)

    def test_per_client_lru_eviction(self):
        cache = ReplyCache(per_client=2)
        reply = Message(is_reply=True)
        for key in (1, 2):
            cache.begin(9, key)
            cache.store(9, key, reply)
        cache.begin(9, 1)  # touch 1: now 2 is the LRU entry
        cache.begin(9, 3)  # evicts 2
        assert cache.evictions == 1
        verdict, _ = cache.begin(9, 1)  # the touched entry survived
        assert verdict == "hit"
        assert cache.begin(9, 2) == ("miss", [None])  # re-executes: stale dup

    def test_client_dimension_lru_eviction(self):
        cache = ReplyCache(clients=2)
        reply = Message(is_reply=True)
        for src in (1, 2):
            cache.begin(src, 0xAB)
            cache.store(src, 0xAB, reply)
        cache.begin(3, 0xAB)  # third client evicts the LRU one (src=1)
        assert cache.evictions == 1
        assert cache.begin(1, 0xAB) == ("miss", [None])

    def test_store_after_eviction_is_a_noop(self):
        cache = ReplyCache(per_client=1)
        cache.begin(9, 1)
        cache.begin(9, 2)  # evicts the in-progress entry for 1
        cache.store(9, 1, Message(is_reply=True))
        assert cache.begin(9, 1)[0] == "miss"

    def test_an_in_progress_slot_drops_a_duplicate(self):
        cache = ReplyCache()
        verdict, slot = cache.begin(1, 0xAB)
        assert verdict == "miss" and slot == [None]
        assert cache.begin(1, 0xAB) == ("busy", None)
        assert cache.busy_drops == 1

    def test_a_filled_slot_answers_a_duplicate(self):
        cache = ReplyCache()
        reply = Message(data=b"done", is_reply=True)
        _, slot = cache.begin(1, 0xAB)
        slot[0] = reply  # the server's reply tail: no second lookup
        verdict, cached = cache.begin(1, 0xAB)
        assert verdict == "hit" and cached is reply
        assert cache.stats()["entries"] == 1

    def test_a_slot_evicted_then_filled_stays_a_miss(self):
        cache = ReplyCache(per_client=1)
        _, slot = cache.begin(9, 1)
        cache.begin(9, 2)  # evicts the in-progress slot for 1
        slot[0] = Message(is_reply=True)
        assert cache.begin(9, 1) == ("miss", [None])
        assert cache.hits == 0

    def test_seed_fills_an_open_slot_and_counts_nothing(self):
        cache = ReplyCache()
        _, slot = cache.begin(1, 0xAB)
        reply = Message(data=b"durable", is_reply=True)
        cache.seed(1, 0xAB, reply)
        assert slot == [reply]
        cache.seed(2, 0xCD, reply)
        assert cache.begin(2, 0xCD) == ("hit", reply)
        assert (cache.misses, cache.hits) == (1, 1)

    def test_stats_keys(self):
        stats = ReplyCache().stats()
        assert set(stats) == {"hits", "misses", "busy_drops", "evictions",
                              "clients", "entries"}


def bank_world(plan=None, dedup=True):
    net = SimNetwork(faults=plan)
    server = BankServer(Nic(net), rng=RandomSource(seed=1),
                        dedup=dedup).start()
    client = BankClient(Nic(net), server.put_port, rng=RandomSource(seed=2),
                        expect_signature=server.signature_image)
    central = server.create_account({"USD": 10_000}, mint_right=True)
    return net, server, client, central


class TestEffectivelyOnce:
    def test_duplicate_without_dedup_double_executes(self):
        """The hazard itself: at-least-once + non-idempotent op, no cache."""
        _, server, client, central = bank_world(
            FaultPlan(seed=1, duplicate=1.0), dedup=False)
        alice = client.open_account()
        client.transfer(central, alice, "USD", 100)
        # Both copies of the transfer executed: money moved twice.
        assert client.balance(alice) == {"USD": 200}

    def test_duplicate_with_dedup_executes_once(self):
        _, server, client, central = bank_world(
            FaultPlan(seed=1, duplicate=1.0), dedup=True)
        alice = client.open_account()
        client.transfer(central, alice, "USD", 100)
        assert client.balance(alice) == {"USD": 100}
        assert server.reply_cache.hits >= 1

    def test_error_replies_replay_too(self):
        _, server, client, central = bank_world(
            FaultPlan(seed=1, duplicate=1.0), dedup=True)
        alice = client.open_account()
        client.transfer(central, alice, "USD", 5)
        before = server.request_counts[BANK_TRANSFER]
        with pytest.raises(InsufficientFunds):
            client.transfer(alice, central, "USD", 50)
        # The duplicate was answered from the cache, not re-executed.
        assert server.request_counts[BANK_TRANSFER] == before + 1
        assert server.reply_cache.hits >= 1

    def test_retried_transfers_under_loss_land_exactly_once(self):
        """The acceptance scenario in miniature: every completed transfer
        moved money exactly once, under drops and duplicates."""
        plan = FaultPlan(seed=11, drop=0.1, duplicate=0.05)
        net = SimNetwork(faults=plan)
        server = BankServer(Nic(net), rng=RandomSource(seed=1),
                            dedup=True).start()
        client = BankClient(Nic(net), server.put_port,
                            rng=RandomSource(seed=2),
                            expect_signature=server.signature_image,
                            timeout=5.0,
                            retry=RetryPolicy(attempts=10, seed=3))
        central = server.create_account({"USD": 10_000}, mint_right=True)
        alice = client.open_account()
        completed = 0
        for _ in range(200):
            client.transfer(central, alice, "USD", 1)
            completed += 1
        assert completed == 200
        assert client.balance(alice) == {"USD": 200}
        assert server.total_in_circulation("USD") == 10_000
        assert plan.injected_drops > 0
        # Lost replies forced retransmissions; the cache absorbed them.
        assert server.reply_cache.hits > 0


class TestIntruderIsolation:
    def _world(self):
        net = SimNetwork()
        server = BankServer(Nic(net), rng=RandomSource(seed=1),
                            dedup=True).start()
        client = BankClient(Nic(net), server.put_port,
                            rng=RandomSource(seed=2),
                            expect_signature=server.signature_image)
        central = server.create_account({"USD": 1_000}, mint_right=True)
        intruder = Intruder(net, rng=RandomSource(seed=9))
        return net, server, client, central, intruder

    def test_replay_lands_in_its_own_bucket(self):
        net, server, client, central, intruder = self._world()
        alice = client.open_account()
        intruder.start_capture()
        client.transfer(central, alice, "USD", 10)
        cache = server.reply_cache
        hits_before = cache.hits
        buckets_before = len(cache._clients)
        transfer = [f for f in intruder.captured_requests()
                    if f.message.command == BANK_TRANSFER][0]
        victim_src = transfer.src
        intruder.replay(transfer)
        # The replay presented the intruder's own network-stamped src:
        # a fresh bucket, not the victim's — its cached reply was neither
        # read (no hit) nor disturbed.
        assert len(cache._clients) == buckets_before + 1
        assert cache.hits == hits_before
        assert intruder.address in cache._clients
        assert victim_src != intruder.address
        assert cache._clients[victim_src] is not cache._clients[
            intruder.address]

    def test_replayed_bearer_transfer_is_the_documented_residual_risk(self):
        # Without §2.4 sealing the capability is a bearer token, so the
        # replayed transfer DOES execute again — as a new transaction,
        # never as a replay of the victim's cached reply.  (The matrix
        # tests show sealing close this; dedup is not a replay defence.)
        net, server, client, central, intruder = self._world()
        alice = client.open_account()
        intruder.start_capture()
        client.transfer(central, alice, "USD", 10)
        transfer = [f for f in intruder.captured_requests()
                    if f.message.command == BANK_TRANSFER][0]
        intruder.replay(transfer)
        assert client.balance(alice) == {"USD": 20}
        assert server.reply_cache.hits == 0

    def test_replayed_reply_goes_to_a_dark_port(self):
        # The replay's reply port was double-one-wayed by the intruder's
        # F-box, so the (replayed) reply lands nowhere the intruder can
        # hear — the cache replays to the same dark port.
        net, server, client, central, intruder = self._world()
        alice = client.open_account()
        intruder.start_capture()
        client.transfer(central, alice, "USD", 10)
        transfer = [f for f in intruder.captured_requests()
                    if f.message.command == BANK_TRANSFER][0]
        dropped_before = net.frames_dropped
        intruder.replay(transfer)
        intruder.replay(transfer)  # second copy: a "hit" in its bucket
        # The intruder's F-box re-one-ways the captured wire reply port
        # F(G') on egress, so its transactions are keyed by F(F(G')).
        dark_reply = intruder.nic.fbox.transform_egress(
            transfer.message).reply.value
        assert server.reply_cache.begin(
            intruder.address, dark_reply)[0] == "hit"
        # Neither reply was deliverable.
        assert net.frames_dropped >= dropped_before + 2

    def test_victim_retry_still_dedups_after_replay(self):
        net, server, client, central, intruder = self._world()
        alice = client.open_account()
        intruder.start_capture()
        client.transfer(central, alice, "USD", 10)
        transfer = [f for f in intruder.captured_requests()
                    if f.message.command == BANK_TRANSFER][0]
        intruder.replay(transfer)
        # The victim's own (late) retransmission — same src, same F(G')
        # — still replays from the victim's cache entry: the intruder's
        # traffic did not evict or confuse it.
        verdict, cached = server.reply_cache.begin(
            transfer.src, transfer.message.reply.value)
        assert verdict == "hit"
        assert cached is not None and cached.status == 0
