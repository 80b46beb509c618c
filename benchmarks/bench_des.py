"""Virtual-clock discrete-event arm: latency amortization, measured.

The wall-clock workloads of ``benchmarks/suite/`` measure the CPU cost
of the stack at zero wire latency, where pipelining is bounded by the
host (~1.5x full stack — see docs/PERFORMANCE.md).  This arm runs the
identical protocol code on the DES network
(``SimNetwork(clock=VirtualClock(), latency=LatencyModel(rtt_ms=2.8))``)
and measures *virtual* time: what the transactions would cost on a
paper-era 2.8 ms-RTT wire.  There the economics §4 describes finally
appear — a serial client pays one RTT per transaction while 16-in-flight
pipelining pays one RTT per *batch* — and they appear deterministically:
the clock only advances on event delivery, so the same seed produces the
same numbers on any host, at any load.

``des_amortization`` (key in ``BENCH_invariants.json``)
    ``serial``: blocking ``trans`` round trips against the full
    :class:`EchoServer` stack — exactly one RTT of virtual time per
    transaction.  ``pipelined``: the same traffic 16 in flight via
    ``trans_many``.  ``vs_serial_x`` is the amortization multiple, >= 8x
    by the acceptance bar (measured: 16x — one RTT buys the whole batch);
    each side runs twice and ``deterministic`` records that the second,
    identically seeded run reproduced the first bit for bit.

``des_retention``
    What a station keeps is what it listens on, not how long it has run:
    every station serves an echo port and runs more blocking
    transactions than ``PORT_CACHE_MAX`` against its neighbour, and
    afterwards holds at most the bound in F-box images, no sink but its
    served port, and the network no index entry but the servers' —
    nor *during* a transaction: ``index_entries_in_flight_max`` is the
    index as each request and reply leaves, the caller's reply GET out.
    ``retained_entries`` is the count of everything left, seed-exact.
"""

from repro.core.ports import PORT_CACHE_MAX
from repro.crypto.randomsrc import RandomSource
from repro.ipc.rpc import trans, trans_many
from repro.ipc.stdops import USER_BASE
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.net.sched import LatencyModel, VirtualClock
from repro.testing.world import EchoServer

#: The paper-era round trip: §4's measured locate+RPC figures are in the
#: low milliseconds on 1986 hardware and a 10 Mbit/s segment.
PAPER_RTT_MS = 2.8
#: The acceptance bar on ``vs_serial_x``.
AMORTIZATION_BAR = 8.0


def _virtual_seconds(inflight, batches, seed):
    """One seeded run: ``batches`` rounds of ``inflight`` transactions
    (1 = blocking ``trans``); returns the virtual seconds they took."""
    net = SimNetwork(clock=VirtualClock(),
                     latency=LatencyModel(rtt_ms=PAPER_RTT_MS, seed=seed))
    server = EchoServer(Nic(net), rng=RandomSource(seed=1)).start()
    server.count_requests = False
    client = Nic(net)
    rng = RandomSource(seed=2)
    request = Message(command=USER_BASE, data=b"payload")
    start = net.clock.now
    for _ in range(batches):
        if inflight == 1:
            trans(client, server.put_port, request, rng)
        else:
            trans_many(client, server.put_port, [request] * inflight, rng)
    return net.clock.now - start


def _side(inflight, batches, seed):
    virtual = _virtual_seconds(inflight, batches, seed)
    total = inflight * batches
    return {
        "inflight": inflight,
        "transactions": total,
        "virtual_seconds": round(virtual, 9),
        "virtual_ms_per_trans": round(virtual / total * 1e3, 6),
        "deterministic": _virtual_seconds(inflight, batches, seed) == virtual,
    }


def des_amortization(n=400, inflight=16, batches=50, seed=42):
    """Serial vs 16-in-flight under the same virtual 2.8 ms RTT."""
    serial = _side(1, n, seed)
    pipelined = _side(inflight, batches, seed)
    return {
        "rtt_ms": PAPER_RTT_MS,
        "seed": seed,
        "serial": serial,
        "pipelined": pipelined,
        "vs_serial_x": round(serial["virtual_ms_per_trans"]
                             / pipelined["virtual_ms_per_trans"], 2),
    }


def check_amortization(result):
    failures = []
    for side in ("serial", "pipelined"):
        if not result[side]["deterministic"]:
            failures.append("%s: identically-seeded reruns diverged" % side)
    if result["vs_serial_x"] < AMORTIZATION_BAR:
        failures.append("amortization multiple %.2fx below the %gx bar"
                        % (result["vs_serial_x"], AMORTIZATION_BAR))
    return failures


def des_retention(stations=20, transactions=2200, seed=42):
    """``stations`` x ``transactions`` blocking round trips on one DES
    wire, then a census of every table a transaction writes to."""
    net = SimNetwork(clock=VirtualClock(),
                     latency=LatencyModel(rtt_ms=PAPER_RTT_MS, seed=seed))
    nics = [Nic(net) for _ in range(stations)]
    servers = [EchoServer(nic, rng=RandomSource(seed=seed + i)).start()
               for i, nic in enumerate(nics)]
    rngs = [RandomSource(seed=seed + stations + i) for i in range(stations)]
    request = Message(command=USER_BASE, data=b"payload")
    index_sizes = set()  # the routing index as each frame leaves
    net.add_tap(lambda frame: index_sizes.add(len(net._listeners)))
    for _ in range(transactions):
        for i, nic in enumerate(nics):
            trans(nic, servers[(i + 1) % stations].put_port, request, rngs[i])
    served = {server.put_port for server in servers}
    images = [len(nic.fbox._images) for nic in nics]
    pooled = sum(len(pool) for nic in nics
                 for pool in nic._reply_pools.values())
    stray_sinks = sum(len(set(nic._sinks) - served) for nic in nics)
    stray_listeners = len(set(net._listeners) - served)
    return {
        "stations": stations,
        "transactions_each": transactions,
        "seed": seed,
        "bound": PORT_CACHE_MAX,
        "image_entries_max": max(images),
        "index_entries_in_flight_max": max(index_sizes),
        "stray_sinks": stray_sinks,
        "stray_listeners": stray_listeners,
        "round_robin_entries": len(net._round_robin),
        "retained_entries": (
            sum(images) + pooled + sum(len(nic._sinks) for nic in nics)
            + len(net._listeners) + len(net._round_robin)),
    }


def check_retention(result):
    failures = []
    if result["transactions_each"] <= result["bound"]:
        failures.append("%d transactions a station never fill a cache of %d"
                        % (result["transactions_each"], result["bound"]))
    if result["image_entries_max"] > result["bound"]:
        failures.append("a station holds %d F-box images, over the bound %d"
                        % (result["image_entries_max"], result["bound"]))
    if result["index_entries_in_flight_max"] != result["stations"]:
        failures.append("the index held %d entries mid-transaction, not the "
                        "%d served ports" % (
                            result["index_entries_in_flight_max"],
                            result["stations"]))
    for table in ("stray_sinks", "stray_listeners", "round_robin_entries"):
        if result[table]:
            failures.append("%d %s left behind" % (result[table], table))
    return failures


#: name -> (workload, check(result) -> [failures], CI-sized kwargs).  The
#: numbers are virtual (host speed does not move them), so the smoke
#: sizes exist only to bound CI wall time, not to fight noise.
ARMS = {
    "des_amortization": (des_amortization, check_amortization,
                         {"n": 64, "batches": 8}),
    "des_retention": (des_retention, check_retention,
                      {"stations": 3, "transactions": 1100}),
}
