"""Overload arm: a flood into the bounded ingress queue, counted.

``flood_drop_vs_backpressure`` (key in ``BENCH_invariants.json``)
    A client floods a server's ingress port far beyond its queue bound
    on the deferred network, with no pump in between — an attacker (or a
    stampede) that sends far faster than the server drains — and the
    event loop's ``depth`` / ``dropped_overflow`` counters make the loss
    visible; then the same flood runs against an unbounded queue
    (backpressure-by-memory).  The overload contract is asserted on the
    counters: the bounded arm drops and counts with the queue capped at
    ``max_depth``, the unbounded arm accepts everything, and after the
    backlog is shed both still serve a pipelined batch in full.

What a flood costs in *time* is the suite's business (``sim_pipelined16``
drives the same queue); this arm reports no rate.
"""

from repro.crypto.randomsrc import RandomSource
from repro.ipc.rpc import trans_many
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic


class EchoServer(ObjectServer):
    service_name = "bench echo"

    @command(USER_BASE)
    def _echo(self, ctx):
        return ctx.ok(data=ctx.request.data)


def flood(net, client, put_port, offered):
    """Blast ``offered`` port-addressed requests at ``put_port`` with no
    pump in between, then let the server shed and serve the backlog;
    returns the loop's counters as they stood at the flood's peak."""
    message = Message(command=USER_BASE, data=b"x" * 32)
    net.reset_stats()
    accepted = sum(
        1 for _ in range(offered) if client.put(message.copy(dest=put_port))
    )
    stats = net.loop.stats()
    net.pump()
    return {
        "offered": offered,
        "accepted": accepted,
        "dropped_overflow": stats["dropped_overflow"],
        "peak_depth": stats["max_depth_seen"],
    }


def served_after(client, put_port, inflight=16):
    """Replies to one pipelined batch sent once the flood is over."""
    requests = [Message(command=USER_BASE, data=b"payload")] * inflight
    replies = trans_many(client, put_port, requests, RandomSource(seed=9))
    return sum(1 for reply in replies if reply.data == b"payload")


def _flood_arm(max_queue_depth, offered):
    net = SimNetwork(
        synchronous=False, auto_drain=False, max_queue_depth=max_queue_depth
    )
    server = EchoServer(Nic(net), rng=RandomSource(seed=1)).start()
    server.count_requests = False
    client = Nic(net)
    out = flood(net, client, server.put_port, offered)
    out["max_queue_depth"] = max_queue_depth
    out["served_after_flood"] = served_after(client, server.put_port)
    return out


def flood_drop_vs_backpressure(offered=20000, max_depth=256):
    """Overload a server's ingress queue under both queue policies.

    * ``drop``: ``max_queue_depth`` bounds the queue; the tail of the
      flood is dropped and *counted* (``dropped_overflow``), memory
      stays bounded at ``max_depth``.
    * ``backpressure``: the unbounded queue absorbs the entire flood —
      nothing is lost, but ``peak_depth`` shows the memory the server
      traded for it.
    """
    return {
        "drop": _flood_arm(max_depth, offered),
        "backpressure": _flood_arm(0, offered),
    }


def check_flood(result):
    drop, backpressure = result["drop"], result["backpressure"]
    failures = []
    if drop["dropped_overflow"] <= 0:
        failures.append("bounded queue dropped nothing under flood")
    if drop["peak_depth"] + drop["dropped_overflow"] != drop["offered"]:
        failures.append("bounded queue lost frames it did not count")
    if drop["peak_depth"] > drop["max_queue_depth"]:
        failures.append("queue depth %d exceeded its %d bound"
                        % (drop["peak_depth"], drop["max_queue_depth"]))
    if backpressure["dropped_overflow"] != 0:
        failures.append("unbounded queue dropped frames")
    if backpressure["peak_depth"] != backpressure["offered"]:
        failures.append("unbounded queue did not hold the whole flood")
    for name, arm in (("drop", drop), ("backpressure", backpressure)):
        if arm["served_after_flood"] != 16:
            failures.append("%s arm served %d of 16 after the flood"
                            % (name, arm["served_after_flood"]))
    return failures


#: name -> (workload, check(result) -> [failures], CI-sized kwargs).
ARMS = {
    "flood_drop_vs_backpressure": (flood_drop_vs_backpressure, check_flood,
                                   {"offered": 2500}),
}
