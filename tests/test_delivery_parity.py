"""One delivery pipeline, three answers to *when*: the same script must
come out the same under every discipline.

``SimNetwork`` states admit -> schedule -> deliver once; synchronous,
deferred and DES differ only in when ``_deliver`` runs.  Each case below
is a short script (listen, send, perhaps change the world while the
frame is in flight, let everything arrive) run on all three, with the
expected outcome written out — so the table is also the specification:

* the ``send`` verdict is the admission verdict, whatever happens later;
* every station receives the same frames in the same order;
* ``frames_sent / frames_delivered / frames_dropped`` and the fault
  plan's partition counters agree.

Where the timed and untimed semantics are *documented* to differ, the
row says so: a synchronous frame has already arrived when "in flight"
begins, and a DES duplicate draws its own arrival instant (one more RNG
draw), so the seeded leg holds DES to the conservation identity only.
The chaos digests pin DES + faults; this pins the other two to it.
"""

import itertools

import pytest

from repro.core.ports import Port, PrivatePort, as_port
from repro.crypto.randomsrc import RandomSource
from repro.ipc.rpc import AsyncTrans
from repro.net.faults import FaultPlan
from repro.net.message import Message
from repro.testing import world

#: Discipline -> the world's station name.  "deferred" here is the event
#: loop the script pumps itself (``arrive``): ``deferred-manual``.
NETWORKS = {"synchronous": "synchronous", "deferred": "deferred-manual",
            "des": "des"}
ALL = tuple(NETWORKS)
QUEUED = ("deferred", "des")  # a frame is in flight between send and arrive
SYNCHRONOUS = ("synchronous",)  # ... and here it has already arrived
PORT = Port(0x5050)
SIGNATURE = PrivatePort(0x516A7)  # the server's reply-signing secret S
ABSENT = 99  # a machine address the network never handed out


class World(world.World):
    """Four stations (addresses 1-4) on one network of the discipline;
    every frame sent carries the next serial number as its payload."""

    def __init__(self, discipline, faults=None):
        super().__init__(NETWORKS[discipline], faults=faults)
        self.nics = [self.node() for _ in range(4)]
        self.wire = self.nics[0].fbox.listen_port(PORT)
        self.verdicts = []
        self.heard = {}  # station -> serials its broadcast handler saw
        self._listened = []
        self._serial = itertools.count()

    def listen(self, *stations):
        for station in stations:
            assert self.nics[station].listen(PORT) == self.wire
            self._listened.append(station)

    def hear_broadcasts(self, *stations):
        for station in stations:
            heard = self.heard[station] = []
            self.nics[station].on_broadcast(
                lambda frame, heard=heard: heard.append(frame.message.data[0]))

    def message(self):
        return Message(dest=self.wire, data=bytes([next(self._serial)]))

    def send(self, src, to=None):
        self.verdicts.append(self.nics[src].put(self.message(), to))

    def arrive(self):
        """Let everything in flight arrive (synchronous: it already has)."""
        self.net.run()

    def outcome(self):
        received = dict(self.heard)
        for station in self._listened:
            poll = self.nics[station].poll_wire
            received[station] = [
                frame.message.data[0]
                for frame in iter(lambda: poll(self.wire), None)
            ]
        net = self.net
        stats = self.faults.stats() if self.faults is not None else {}
        return outcome(
            self.verdicts, received,
            (net.frames_sent, net.frames_delivered, net.frames_dropped),
            stats.get("partition_drops"), stats.get("by_link"))


def outcome(verdicts, received, wire, partition_drops=None, by_link=None):
    out = {"verdicts": verdicts, "received": received,
           "sent/delivered/dropped": wire}
    if partition_drops is not None:
        out["partition_drops"] = partition_drops
        out["by_link"] = by_link
    return out


# ----------------------------------------------------------------------
# the scripts
# ----------------------------------------------------------------------


def unicast_to_a_listening_machine(w):
    w.listen(1)
    w.send(0, to=2)
    w.arrive()


def unicast_to_a_machine_not_listening(w):
    w.listen(2)  # somebody admits the port — not the addressee
    w.send(0, to=2)
    w.send(0, to=3)
    w.arrive()


def unicast_to_an_absent_machine(w):
    w.listen(1)
    w.send(0, to=ABSENT)
    w.arrive()


def port_addressed_nobody_listens(w):
    w.send(0)
    w.arrive()


def port_addressed_one_listener(w):
    w.listen(1)
    w.send(0)
    w.send(0)
    w.arrive()


def port_addressed_three_listeners(w):
    w.listen(1, 2, 3)
    for _ in range(4):
        w.send(0)
    w.arrive()


def taker_withdraws_in_flight(w):
    w.listen(1)
    w.send(0, to=2)
    w.nics[1].unlisten(PORT)
    w.arrive()


def link_severed_at_send(w):
    w.listen(1)
    w.faults.sever(1, 2)
    w.send(0, to=2)
    w.faults.heal()
    w.send(0, to=2)
    w.arrive()


def link_severed_in_flight(w):
    w.listen(1)
    w.send(0, to=2)
    w.faults.sever(1, 2)
    w.arrive()


def port_addressed_listener_severed_in_flight(w):
    w.listen(1, 2)
    w.send(0)
    w.send(0)
    w.faults.sever(1, 2)  # station 1 becomes unreachable: station 2 takes both
    w.arrive()


def port_addressed_taker_cut_off_at_send(w):
    """The stations admit the port, but the sender's link to the only
    taker is cut: on the synchronous wire ``_deliver`` refuses the frame
    inside ``send``, and the verdict must still be the admission's."""
    w.listen(1)
    w.faults.sever(1, 2)
    w.send(0)
    w.arrive()


def broadcast_with_one_pairwise_cut(w):
    w.hear_broadcasts(1, 2, 3)
    w.faults.sever(1, 3)
    w.nics[0].put_broadcast(w.message())  # its return value is documented
    w.arrive()                            # to differ under DES: not recorded


def forged_and_replayed_replies_by_port_to_a_pooled_reply_port(w):
    """A transaction's reply GET is a sink on the client's station and
    nothing on the network: the routing index never lists it.  Frames
    sent to it by *port* — a forged reply, and a replay of an earlier
    genuine one — therefore ask the stations, reach the holder, and are
    refused there by signature; once the GET is withdrawn nobody takes
    them.  (Deferred: the two frames are the only pending port, so they
    pass through the pump's coalescing turn.)"""
    server, client, intruder = w.nics[1:]
    requests, tapped = [], []
    server.serve(PORT, requests.append)
    w.net.add_tap(tapped.append)
    rng = RandomSource(seed=5)
    accepted = w.heard[client.address] = []

    def issue():
        call = AsyncTrans(client, w.wire, w.message(), rng,
                          expect_signature=SIGNATURE.public)
        w.arrive()
        assert call.wire_reply not in w.net._listeners
        return call, requests.pop()

    def answer(frame):
        reply = frame.message.reply_to(
            data=frame.message.data, signature=as_port(SIGNATURE))
        w.verdicts.append(server.put(reply, frame.src))
        w.arrive()

    def collect(call):
        reply = call.poll()
        accepted.append(reply and reply.data[0])

    first, request = issue()
    answer(request)
    collect(first)
    genuine = tapped[-1].message
    second, request = issue()
    forged = request.message.reply_to(data=w.message().data, signature=PORT)
    replayed = genuine.copy(dest=second.wire_reply)
    for message in (forged, replayed):
        w.verdicts.append(intruder.put(message))
    w.arrive()
    assert client.received == 3  # both reached the holder ...
    collect(second)              # ... and neither was accepted
    answer(request)
    collect(second)
    w.verdicts.append(intruder.put(replayed))  # a stale duplicate, by port
    w.arrive()
    assert w.net._listeners.keys() == {w.wire} and not client._sinks


#: script -> (needs a fault plan, {disciplines: expected outcome}).
CASES = {
    unicast_to_a_listening_machine: (False, {
        ALL: outcome([True], {1: [0]}, (1, 1, 0)),
    }),
    unicast_to_a_machine_not_listening: (False, {
        ALL: outcome([False, True], {2: [1]}, (2, 1, 1)),
    }),
    unicast_to_an_absent_machine: (False, {
        ALL: outcome([False], {1: []}, (1, 0, 1)),
    }),
    port_addressed_nobody_listens: (False, {
        ALL: outcome([False], {}, (1, 0, 1)),
    }),
    port_addressed_one_listener: (False, {
        ALL: outcome([True, True], {1: [0, 1]}, (2, 2, 0)),
    }),
    port_addressed_three_listeners: (False, {
        # The arbiter takes turns: 1-2-3-1.
        ALL: outcome([True] * 4, {1: [0, 3], 2: [1], 3: [2]}, (4, 4, 0)),
    }),
    taker_withdraws_in_flight: (False, {
        # Admitted, then nobody there on arrival: a packet to a dead host.
        QUEUED: outcome([True], {1: []}, (1, 0, 1)),
        # Delivered (into the queue the withdrawal then discarded).
        SYNCHRONOUS: outcome([True], {1: []}, (1, 1, 0)),
    }),
    forged_and_replayed_replies_by_port_to_a_pooled_reply_port: (False, {
        # Replies 0 and 1 accepted, nothing in between; of seven frames
        # (two requests, two genuine replies, forgery, replay, stale
        # duplicate) only the last finds no taker.
        ALL: outcome([True, True, True, True, False], {3: [0, None, 1]},
                     (7, 6, 1)),
    }),
    link_severed_at_send: (True, {
        # The plan swallows it at send: admitted, and not the wire's drop.
        ALL: outcome([True, True], {1: [1]}, (2, 1, 0), 1,
                       {"1->2": {"partition": 1}}),
    }),
    link_severed_in_flight: (True, {
        QUEUED: outcome([True], {1: []}, (1, 0, 1), 1,
                        {"1->2": {"partition": 1}}),
        SYNCHRONOUS: outcome([True], {1: [0]}, (1, 1, 0), 0, {}),
    }),
    port_addressed_listener_severed_in_flight: (True, {
        # Not a loss: the arbiter rotates among the *reachable* takers.
        QUEUED: outcome([True, True], {1: [], 2: [0, 1]}, (2, 2, 0), 0, {}),
        SYNCHRONOUS: outcome([True, True], {1: [0], 2: [1]}, (2, 2, 0),
                               0, {}),
    }),
    port_addressed_taker_cut_off_at_send: (True, {
        ALL: outcome([True], {1: []}, (1, 0, 1), 1,
                     {"1->*": {"partition": 1}}),
    }),
    broadcast_with_one_pairwise_cut: (True, {
        ALL: outcome([], {1: [0], 2: [], 3: [0]}, (1, 2, 0), 1,
                       {"1->3": {"partition": 1}}),
    }),
}


@pytest.mark.parametrize("script", CASES, ids=lambda script: script.__name__)
def test_same_script_same_outcome(script):
    needs_plan, by_discipline = CASES[script]
    for discipline in NETWORKS:
        world = World(discipline, FaultPlan() if needs_plan else None)
        script(world)
        (want,) = [out for who, out in by_discipline.items()
                   if discipline in who]
        assert world.outcome() == want, discipline
        assert world.net.pending == 0


# ----------------------------------------------------------------------
# the send verdict, with and without a plan in the way
# ----------------------------------------------------------------------

#: plan -> (build it, copies of a frame that reach its taker).  A plan
#: that fires nothing hands ``send`` a pass and the frame takes the
#: perfect wire's path; one that fires goes through the copies.
PLANS = {
    "no plan": (lambda: None, 1),
    "silent": (lambda: FaultPlan(seed=3), 1),
    "armed, never fires": (
        lambda: FaultPlan(seed=3, drop=1e-12, duplicate=1e-12), 1),
    "duplicates every frame": (lambda: FaultPlan(seed=3, duplicate=1.0), 2),
    "drops every frame": (lambda: FaultPlan(seed=3, drop=1.0), 0),
}


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("discipline", ALL)
def test_the_send_verdict_is_admission_whatever_the_plan(discipline, plan):
    build, copies = PLANS[plan]
    w = World(discipline, build())
    w.listen(1)
    w.send(0, to=2)  # 0: unicast to the listener
    w.send(0)        # 1: by port, served
    w.send(0, to=3)  # 2: unicast to a station that does not admit it
    w.verdicts.append(w.nics[0].put(Message(dest=Port(0x404))))  # nobody
    w.arrive()
    got = w.outcome()
    assert got["verdicts"] == [True, True, False, False]
    assert sorted(got["received"][1]) == [0] * copies + [1] * copies
    # The plan's drops are not the wire's; each refused copy is.
    assert got["sent/delivered/dropped"] == (4, 2 * copies, 2 * copies)
    assert w.net.pending == 0


# ----------------------------------------------------------------------
# one seeded lossy leg
# ----------------------------------------------------------------------


def lossy_leg(discipline, **knobs):
    world = World(discipline, FaultPlan(seed=11, **knobs))
    world.listen(1)
    for _ in range(80):
        world.send(0, to=2)
    world.arrive()
    return world


@pytest.mark.parametrize("knobs", [
    dict(drop=0.2, reorder=0.2),
    dict(drop=0.2, duplicate=0.2, reorder=0.2),
], ids=["drop+reorder", "drop+duplicate+reorder"])
def test_seeded_fault_plan_leg(knobs):
    worlds = {d: lossy_leg(d, **knobs) for d in NETWORKS}
    outcomes = {d: w.outcome() for d, w in worlds.items()}
    stats = {d: w.faults.stats() for d, w in worlds.items()}
    for discipline, world in worlds.items():
        got, plan = outcomes[discipline], stats[discipline]
        # The verdict is the pristine frame's admission, whatever the
        # plan then does; the plan's drops are not the wire's.
        assert got["verdicts"] == [True] * 80
        assert plan["injected_drops"] and plan["injected_reorders"]
        assert bool(plan["injected_duplicates"]) == ("duplicate" in knobs)
        sent, delivered, dropped = got["sent/delivered/dropped"]
        assert (sent, dropped) == (80, 0)
        # Conservation: every frame seen was dropped, is still held
        # back behind a successor that never came, or arrived.
        assert len(got["received"][1]) == delivered == (
            80 - plan["injected_drops"] + plan["injected_duplicates"]
            - len(world.faults._held))
    # The untimed disciplines agree on everything: same draws in the same
    # order, copies back to back, hold-back behind the next frame.
    assert outcomes["deferred"] == outcomes["synchronous"]
    assert stats["deferred"] == stats["synchronous"]
    if "duplicate" not in knobs:
        # So does DES until a duplicate draws its own arrival instant.
        assert outcomes["des"] == outcomes["synchronous"]
        assert stats["des"] == stats["synchronous"]
        assert sorted(outcomes["des"]["received"][1]) != (
            outcomes["des"]["received"][1])  # reordering did happen
