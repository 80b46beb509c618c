"""Tests for the fault-injection plane (:mod:`repro.net.faults`).

The contracts under test:

* a :class:`FaultPlan` is deterministic — same seed over the same
  traffic, same faults, on every delivery discipline including the DES
  virtual-clock wire;
* drop is admitted-then-lost (the sender cannot tell), duplicate is
  delivered twice, reorder is hold-back-and-release-behind-the-next-
  frame, per-link overrides beat the defaults;
* a corruption aimed at the capability (``corrupt_field="capability"``)
  NEVER passes validation — any single-bit flip in the validated
  (object, rights, check) region either fails to parse or is rejected
  by the object table, fuzzed over many seeded plans;
* the datagram seam (:meth:`FaultPlan.apply_datagram` /
  :func:`faulty_sendto`) shares the same decision semantics;
* the roll draws what a naive reading of its documented order draws —
  same copies, same counters, same RNG state — whatever it hands back
  (a pass verdict or a list);
* one plan is safe under threads: every datagram is counted once.
"""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ports import PrivatePort
from repro.crypto.randomsrc import RandomSource
from repro.errors import RPCTimeout
from repro.ipc.rpc import RetryPolicy, trans
from repro.ipc.stdops import STD_TOUCH, USER_BASE
from repro.net.faults import FaultPlan, FaultSpec, faulty_sendto
from repro.net.message import Message
from repro.net.network import Frame, SimNetwork
from repro.net.nic import Nic
from repro.net.sched import LatencyModel, VirtualClock
from repro.testing.world import EchoServer, World


def sync_world(plan, seed=1):
    w = World("synchronous", faults=plan)
    server = EchoServer(w.node(), rng=RandomSource(seed=seed)).start()
    return w.net, server, w.node()


class TestSpecValidation:
    def test_probabilities_must_be_in_unit_interval(self):
        with pytest.raises(ValueError):
            FaultSpec(drop=1.5)
        with pytest.raises(ValueError):
            FaultSpec(reorder=-0.1)

    def test_silent_spec_skips_rng(self):
        assert FaultSpec().silent
        assert not FaultSpec(drop=0.01).silent

    def test_plan_rejects_bad_corrupt_field(self):
        with pytest.raises(ValueError):
            FaultPlan(corrupt_field="payload")
        with pytest.raises(ValueError):
            FaultPlan(delay_ms=-1)


class TestDropSemantics:
    def test_drop_all_loses_every_request(self):
        plan = FaultPlan(seed=1, drop=1.0)
        _, server, client = sync_world(plan)
        with pytest.raises(RPCTimeout):
            trans(client, server.put_port, Message(command=USER_BASE),
                  rng=RandomSource(seed=3), timeout=0.05)
        assert server.request_counts[USER_BASE] == 0
        assert plan.injected_drops >= 1

    def test_drop_is_admitted_then_lost(self):
        # The sender's put() still reports admission: loss is invisible
        # at send time, exactly like queue overflow.
        plan = FaultPlan(seed=1, drop=1.0)
        net, server, client = sync_world(plan)
        accepted = client.put(Message(command=USER_BASE,
                                      dest=server.put_port))
        assert accepted
        assert server.request_counts[USER_BASE] == 0

    def test_lossless_plan_changes_nothing(self):
        plan = FaultPlan(seed=1)
        _, server, client = sync_world(plan)
        reply = trans(client, server.put_port,
                      Message(command=USER_BASE, data=b"x"),
                      rng=RandomSource(seed=3))
        assert reply.data == b"x"
        assert plan.frames_seen >= 2  # request and reply both inspected


class TestDuplicateSemantics:
    def test_duplicate_executes_handler_twice_without_dedup(self):
        plan = FaultPlan(seed=1, duplicate=1.0)
        _, server, client = sync_world(plan)
        reply = trans(client, server.put_port,
                      Message(command=USER_BASE, data=b"dup"),
                      rng=RandomSource(seed=3))
        assert reply.data == b"dup"
        # Both copies of the request reached the handler: this is the
        # double-execution hazard the ReplyCache exists to remove.
        assert server.request_counts[USER_BASE] == 2
        assert plan.injected_duplicates >= 1


class TestPerLinkOverrides:
    def test_reply_only_loss(self):
        # Kill only the server's egress link: requests arrive and
        # execute, replies vanish.
        plan = FaultPlan(seed=1)
        net = SimNetwork(faults=plan)
        server = EchoServer(Nic(net), rng=RandomSource(seed=1)).start()
        plan.links = {server.node.address: FaultSpec(drop=1.0)}
        client = Nic(net)
        with pytest.raises(RPCTimeout):
            trans(client, server.put_port, Message(command=USER_BASE),
                  rng=RandomSource(seed=3), timeout=0.05)
        assert server.request_counts[USER_BASE] == 1

    def test_pair_key_beats_src_key(self):
        spec_pair = FaultSpec(drop=1.0)
        spec_src = FaultSpec()
        plan = FaultPlan(seed=1, links={(7, 9): spec_pair, 7: spec_src})
        assert plan._spec(7, 9) is spec_pair
        assert plan._spec(7, 8) is spec_src
        assert plan._spec(6, 9) is plan.default


class TestReorderSemantics:
    def test_held_frame_released_behind_next(self):
        plan = FaultPlan(seed=1)
        net = SimNetwork(faults=plan)
        sender_a, sender_b, receiver = Nic(net), Nic(net), Nic(net)
        plan.links = {sender_a.address: FaultSpec(reorder=1.0)}
        inbox = PrivatePort.generate(RandomSource(seed=2))
        wire = receiver.listen(inbox)
        sender_a.put(Message(dest=wire, data=b"first"))
        # Held: nothing delivered yet.
        assert receiver.poll(inbox) is None
        sender_b.put(Message(dest=wire, data=b"second"))
        first = receiver.poll(inbox)
        second = receiver.poll(inbox)
        assert (first.message.data, second.message.data) == (b"second",
                                                             b"first")
        assert plan.injected_reorders == 1


class TestBroadcastFaults:
    def test_broadcast_duplicate_delivers_twice(self):
        plan = FaultPlan(seed=1, duplicate=1.0)
        net = SimNetwork(faults=plan)
        sender, listener = Nic(net), Nic(net)
        heard = []
        listener.on_broadcast(lambda frame: heard.append(frame.message.data))
        sender.put_broadcast(Message(command=USER_BASE, data=b"hello"))
        assert heard == [b"hello", b"hello"]

    def test_broadcast_drop_is_silent(self):
        plan = FaultPlan(seed=1, drop=1.0)
        net = SimNetwork(faults=plan)
        sender, listener = Nic(net), Nic(net)
        heard = []
        listener.on_broadcast(lambda frame: heard.append(frame))
        sender.put_broadcast(Message(command=USER_BASE))
        assert heard == []
        assert plan.injected_drops == 1


class TestDeterminism:
    def _run_traffic(self, seed):
        plan = FaultPlan(seed=seed, drop=0.2, duplicate=0.1, corrupt=0.05,
                         reorder=0.05)
        _, server, client = sync_world(plan)
        retry = RetryPolicy(attempts=6, seed=seed)
        outcomes = []
        for i in range(40):
            try:
                reply = trans(client, server.put_port,
                              Message(command=USER_BASE, data=b"%d" % i),
                              rng=RandomSource(seed=100 + i), timeout=5.0,
                              retry=retry)
                outcomes.append(reply.data)
            except RPCTimeout:
                outcomes.append(None)
        return outcomes, plan.stats(), server.request_counts[USER_BASE]

    def test_same_seed_same_faults(self):
        first = self._run_traffic(seed=11)
        second = self._run_traffic(seed=11)
        assert first == second

    def test_different_seed_different_faults(self):
        _, stats_a, _ = self._run_traffic(seed=11)
        _, stats_b, _ = self._run_traffic(seed=12)
        assert stats_a != stats_b


class TestDESFaults:
    def _des_run(self, seed):
        plan = FaultPlan(seed=seed, drop=0.2, duplicate=0.1, delay=0.2,
                         delay_ms=1.0)
        net = SimNetwork(clock=VirtualClock(),
                         latency=LatencyModel(rtt_ms=2.8), faults=plan)
        server = EchoServer(Nic(net), rng=RandomSource(seed=1)).start()
        client = Nic(net)
        retry = RetryPolicy(attempts=6, rto=0.01, seed=seed)
        replies = []
        for i in range(30):
            reply = trans(client, server.put_port,
                          Message(command=USER_BASE, data=b"%d" % i),
                          rng=RandomSource(seed=200 + i), timeout=10.0,
                          retry=retry)
            replies.append(reply.data)
        return replies, net.clock.now, plan.stats()

    def test_des_double_run_is_bit_identical(self):
        assert self._des_run(seed=5) == self._des_run(seed=5)

    def test_des_faults_consume_virtual_time(self):
        replies, clock_now, stats = self._des_run(seed=5)
        assert len(replies) == 30
        # Lossless, 30 serial RTTs would cost 30 * 2.8 ms; retransmission
        # backoff and delay faults must push the virtual clock past that.
        assert clock_now > 30 * 2.8 / 1000.0
        assert stats["injected_drops"] > 0
        assert stats["injected_delays"] > 0


class TestCorruption:
    def test_corrupt_frame_counted_and_screened(self):
        plan = FaultPlan(seed=1, corrupt=1.0)
        _, server, client = sync_world(plan)
        try:
            trans(client, server.put_port,
                  Message(command=USER_BASE, data=b"payload"),
                  rng=RandomSource(seed=3), timeout=0.05)
        except RPCTimeout:
            pass
        assert plan.injected_corruptions >= 1
        total = plan.injected_corruptions
        assert plan.corrupt_unparseable <= total

    def test_frame_that_will_not_pack_is_counted_apart(self):
        """A message that cannot be serialised is the sender's bug, not
        wire noise: the frame is lost like any unparseable one, but on
        its own counter, with the reason kept."""
        from repro.net.network import Frame

        plan = FaultPlan(seed=1, corrupt=1.0)
        # Sealed and plaintext capabilities at once: pack() refuses.
        unpackable = Message(sealed_caps=b"blob", extra_caps=(object(),))
        assert plan.apply(Frame(src=1, dst_machine=2, message=unpackable)) == []
        assert plan.apply_broadcast(
            Frame(src=1, dst_machine=None, message=unpackable)) == []
        assert plan.corrupt_unpackable == 2
        assert plan.corrupt_unparseable == 0
        assert plan.stats()["corrupt_unpackable"] == 2
        assert plan.last_error is not None
        plan.reset_stats()
        assert plan.corrupt_unpackable == 0 and plan.last_error is None

    def test_corrupted_capability_never_validates(self):
        """Fuzz over seeded plans: a single-bit flip in the validated
        capability region must never produce a status-0 reply."""
        for seed in range(24):
            plan = FaultPlan(seed=seed, corrupt=1.0,
                             corrupt_field="capability")
            net = SimNetwork(faults=plan)
            server = EchoServer(Nic(net),
                                rng=RandomSource(seed=1)).start()
            cap = server.table.create("loot")
            client = Nic(net)
            for i in range(8):
                try:
                    reply = trans(
                        client, server.put_port,
                        Message(command=STD_TOUCH, capability=cap),
                        rng=RandomSource(seed=500 + i), timeout=0.05,
                    )
                except RPCTimeout:
                    continue  # flip made the frame unparseable: dropped
                assert reply.status != 0, (
                    "corrupted capability validated (seed=%d, i=%d)"
                    % (seed, i)
                )
            assert plan.injected_corruptions > 0


class TestDatagramSeam:
    def test_drop_and_duplicate(self):
        plan = FaultPlan(seed=1, drop=1.0)
        assert plan.apply_datagram(b"payload") == []
        plan = FaultPlan(seed=1, duplicate=1.0)
        assert plan.apply_datagram(b"payload") == [b"payload", b"payload"]

    def test_corrupt_flips_without_reparse(self):
        plan = FaultPlan(seed=1, corrupt=1.0)
        out = plan.apply_datagram(b"\x00" * 64)
        assert len(out) == 1
        assert out[0] != b"\x00" * 64 and len(out[0]) == 64

    def test_reorder_holds_until_next_datagram(self):
        plan = FaultPlan(seed=1, reorder=1.0,
                         links={1: FaultSpec(reorder=1.0)})
        plan.default = FaultSpec()
        assert plan.apply_datagram(b"first", src=1) == []
        assert plan.apply_datagram(b"second", src=2) == [b"second", b"first"]

    def test_faulty_sendto_applies_plan(self):
        sent = []
        plan = FaultPlan(seed=1, drop=1.0)
        wrapper = faulty_sendto(lambda raw, dst: sent.append((raw, dst)),
                                plan)
        wrapper(b"gone", ("host", 1))
        assert sent == []
        clean = faulty_sendto(lambda raw, dst: sent.append((raw, dst)),
                              FaultPlan(seed=1))
        clean(b"kept", ("host", 1))
        assert sent == [(b"kept", ("host", 1))]


KINDS = ("drops", "corruptions", "delays", "duplicates", "reorders")
ODDS = st.sampled_from((0.0, 0.2, 0.6))


class TestOneDecisionProcedure:
    """An untimed frame and a datagram are faulted by the same rolls in
    the same order (drop, corrupt, delay, duplicate, reorder)."""

    @staticmethod
    def _rolled(plan, send):
        before = [getattr(plan, "injected_" + kind) for kind in KINDS]
        send()
        return tuple(getattr(plan, "injected_" + kind) - was
                     for kind, was in zip(KINDS, before))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        odds=st.tuples(ODDS, ODDS, ODDS, ODDS, ODDS),
        traffic=st.lists(
            st.tuples(st.integers(1, 3),
                      st.one_of(st.none(), st.integers(1, 3)),
                      st.binary(max_size=24)),
            min_size=1, max_size=40),
    )
    def test_same_seed_spec_and_traffic_same_decisions(self, seed, odds,
                                                       traffic):
        spec = dict(zip(("drop", "corrupt", "delay", "duplicate", "reorder"),
                        odds))
        frames = FaultPlan(seed=seed, **spec)
        datagrams = FaultPlan(seed=seed, **spec)
        for src, dst, data in traffic:
            message = Message(command=USER_BASE, data=data)
            lost_to_flip = frames.corrupt_unparseable
            as_frame = self._rolled(frames, lambda: frames.apply(
                Frame(src=src, dst_machine=dst, message=message)))
            as_datagram = self._rolled(datagrams, lambda: (
                datagrams.apply_datagram(message.pack(), src=src, dst=dst)))
            if frames.corrupt_unparseable != lost_to_flip:
                # A simulated frame is re-parsed and, unparseable, is
                # gone; a datagram is not looked at and rolls on.  The
                # streams part here, having agreed this far.
                assert as_frame[:2] == as_datagram[:2] == (0, 1)
                break
            assert as_frame == as_datagram
        else:
            assert frames.stats()["by_link"] == datagrams.stats()["by_link"]


class NaiveRoll:
    """The roll as the module docstring states it, written the slow way:
    one ``random()`` per armed fault in the order drop, corrupt, delay,
    duplicate, reorder; a flip draws a byte, then a bit; a frame carrier
    releases the held backlog behind anything it lets out, a datagram
    behind whatever it does, a broadcast never touches it."""

    def __init__(self, seed, spec, delay_ms):
        self.rng = random.Random(seed)
        self.spec, self.delay_ms = spec, delay_ms
        self.held = []
        self.counts = dict.fromkeys(
            ["frames_seen", "corrupt_unparseable"]
            + ["injected_" + kind for kind in KINDS], 0)
        self.by_link = {}

    def fires(self, kind, odds, src, dst):
        if not odds or self.rng.random() >= odds:
            return False
        self.counts["injected_" + kind] += 1
        link = "%s->%s" % tuple("*" if a is None else a for a in (src, dst))
        kinds = self.by_link.setdefault(link, {})
        kinds[kind] = kinds.get(kind, 0) + 1
        return True

    def flip(self, raw):
        raw = bytearray(raw)
        raw[self.rng.randrange(len(raw))] ^= 1 << self.rng.randrange(8)
        return bytes(raw)

    def roll(self, item, src, dst, timed, holdable):
        spec = self.spec
        if self.fires("drops", spec.drop, src, dst):
            return []
        if self.fires("corruptions", spec.corrupt, src, dst):
            if isinstance(item, bytes):
                item = self.flip(item)
            else:
                try:
                    item = item._replace(message=Message.unpack(
                        self.flip(item.message.pack())))
                except Exception:
                    self.counts["corrupt_unparseable"] += 1
                    return []
        extra = 0.0
        if (timed or holdable) and self.fires("delays", spec.delay, src, dst):
            if not timed:
                self.held.append((item, 0.0))
                return []
            extra = self.delay_ms / 1000.0 * (0.5 + self.rng.random())
        copies = [(item, extra)]
        if self.fires("duplicates", spec.duplicate, src, dst):
            copies.append((item, self.delay_ms / 1000.0 * self.rng.random()
                           if timed else 0.0))
        if holdable and self.fires("reorders", spec.reorder, src, dst):
            self.held += copies
            return []
        return copies

    def frame(self, frame, des):
        self.counts["frames_seen"] += 1
        out = self.roll(frame, frame.src, frame.dst_machine, des, True)
        if self.held and (out or all(f is not frame for f, _ in self.held)):
            out, self.held = out + self.held, []
        return out

    def broadcast(self, frame, des):
        self.counts["frames_seen"] += 1
        return self.roll(frame, frame.src, None, des, False)

    def datagram(self, raw, src, dst):
        self.counts["frames_seen"] += 1
        held, self.held = self.held, []
        return [raw for raw, _ in self.roll(raw, src, dst, False, True) + held]


def comparable(out):
    """Frames carry no equality of their own: compare them packed.  (A
    datagram carrier hands back bare payloads, the others pairs.)"""
    def key(item):
        if isinstance(item, bytes):
            return item
        return item.src, item.dst_machine, item.message.pack()
    return [key(c) if isinstance(c, bytes) else (key(c[0]), c[1])
            for c in out]


class TestDecisionStreamAgainstNaiveRoll:
    """Pass verdict or list, the plan draws exactly what the naive roll
    draws, so the seeded outcomes (and the chaos digests) cannot move
    under a change to what the roll *returns*."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        odds=st.tuples(ODDS, ODDS, ODDS, ODDS, ODDS),
        carriers=st.sampled_from(
            [("frame",), ("broadcast",), ("datagram",), ("frame", "broadcast")]),
        des=st.booleans(),
        traffic=st.lists(
            st.tuples(st.integers(0, 1), st.integers(1, 3),
                      st.one_of(st.none(), st.integers(1, 3)),
                      st.binary(max_size=16)),
            min_size=1, max_size=30),
    )
    def test_same_copies_counters_and_rng_state(self, seed, odds, carriers,
                                                des, traffic):
        spec = FaultSpec(*odds)
        plan = FaultPlan(seed, *odds)
        model = NaiveRoll(seed, spec, plan.delay_ms)
        # A backlog is already held when the traffic starts.
        backlog = Frame(3, 1, Message(command=USER_BASE, data=b"held"))
        if carriers == ("datagram",):
            backlog = backlog.message.pack()
        plan._held = [(backlog, 0.0)]
        model.held = [(backlog, 0.0)]
        for pick, src, dst, data in traffic:
            carrier = carriers[pick % len(carriers)]
            message = Message(command=USER_BASE, data=data)
            if carrier == "datagram":
                raw = message.pack()
                got = plan.apply_datagram(raw, src=src, dst=dst)
                want = model.datagram(raw, src, dst)
            elif carrier == "broadcast":
                frame = Frame(src, None, message)
                got = plan.apply_broadcast(frame, des)
                want = model.broadcast(frame, des)
            else:
                frame = Frame(src, dst, message)
                got = plan.apply(frame, des)
                if got is None:  # the pass verdict
                    got = [(frame, 0.0)]
                want = model.frame(frame, des)
            assert comparable(got) == comparable(want)
        stats = plan.stats()
        assert stats["by_link"] == model.by_link
        assert {key: stats[key] for key in model.counts} == model.counts
        assert comparable(plan._held) == comparable(model.held)
        assert plan._rng.getstate() == model.rng.getstate()


class TestThreadedPlan:
    def test_eight_threads_through_faulty_sendto_count_every_datagram(self):
        """The socket transport's seam from eight threads at once: each
        datagram is seen once and is dropped, sent, or sent twice.  With
        the GIL this holds even with the plan's lock taken out; the
        free-threaded CI lane runs it where a lost update would show."""
        plan = FaultPlan(seed=7, drop=0.1, duplicate=0.1)
        sent = []
        sendto = faulty_sendto(lambda raw, dst: sent.append(raw) or len(raw),
                               plan)
        threads, each = 8, 400
        start = threading.Barrier(threads)
        errors = []

        def worker(n):
            try:
                start.wait(timeout=10)
                for i in range(each):
                    sendto(b"%d:%d" % (n, i), ("host", n))
            except Exception as exc:  # surfaced below, not lost
                errors.append(exc)

        pool = [threading.Thread(target=worker, args=(n,))
                for n in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert errors == []
        total = threads * each
        assert plan.frames_seen == total
        assert (plan.injected_drops + len(sent) - plan.injected_duplicates
                == total)
        assert len(set(sent)) == total - plan.injected_drops
        assert plan.injected_drops and plan.injected_duplicates


class TestStats:
    def test_stats_keys_are_stable(self):
        plan = FaultPlan()
        assert set(plan.stats()) == {
            "frames_seen", "injected_drops", "injected_duplicates",
            "injected_corruptions", "corrupt_unparseable",
            "corrupt_unpackable", "injected_delays", "injected_reorders",
            "partition_drops", "by_link",
        }

    def test_network_stats_include_faults(self):
        plan = FaultPlan(seed=1, drop=0.5)
        net, server, client = sync_world(plan)
        counters = net.stats()
        assert counters["faults"] == plan.stats()
