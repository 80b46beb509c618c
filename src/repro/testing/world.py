"""One world: a wire and its stations, built the same way for every test.

The paper's transaction is one mechanism whatever wire carries it
(§2.1-2.3), and the parity tables check exactly that: the same script on
every station, the same verdicts.  :class:`World` is the one place that
knows what each station name means —

* ``synchronous``: a :class:`~repro.net.network.SimNetwork` that
  delivers inside ``send``;
* ``deferred``: the event loop, drained by every top-level send;
* ``deferred-manual``: the event loop, drained only when the caller
  pumps it (``net.run()``);
* ``des``: discrete-event virtual time over a
  :class:`~repro.net.sched.LatencyModel` (2 ms round trip unless the
  caller brings its own);
* ``udp``: no simulator at all, :class:`~repro.net.sockets.SocketNode`
  stations on loopback sockets.

— and the probes every parity table reads: frames on the wire, reply
GETs left behind, and a shutdown that stops every pump before closing
any socket.  Servers, disks and pools stay with their callers: no two
callers build them alike.
"""

from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.net.sched import LatencyModel, VirtualClock
from repro.net.sockets import SocketNode

STATIONS = ("synchronous", "deferred", "deferred-manual", "des", "udp")


class EchoServer(ObjectServer):
    """Answers ``USER_BASE`` with the request's own data."""

    service_name = "echo"

    @command(USER_BASE)
    def _echo(self, ctx):
        return ctx.ok(data=ctx.request.data)


class World:
    """A wire of one station name, and the stations made on it.

    ``net`` is the simulator, or None on ``udp``.  ``faults`` (a
    :class:`~repro.net.faults.FaultPlan`) goes to the simulator, or to
    every socket's egress on ``udp``; ``latency`` is read on ``des``
    only.  Stations come from :meth:`node`, in call order, so a
    simulator hands out machine addresses 1, 2, ... as it always has.
    """

    def __init__(self, station, *, faults=None, latency=None):
        if station not in STATIONS:
            raise ValueError("no station named %r" % (station,))
        self.faults = faults
        self.nodes = []
        if station == "udp":
            self.net = None
        elif station == "des":
            self.net = SimNetwork(
                clock=VirtualClock(),
                latency=latency or LatencyModel(rtt_ms=2.0),
                faults=faults,
            )
        else:
            self.net = SimNetwork(
                synchronous=(station == "synchronous"),
                auto_drain=(station != "deferred-manual"),
                faults=faults,
            )

    def node(self):
        """A new station on this world's wire."""
        if self.net is None:
            node = SocketNode(faults=self.faults)
        else:
            node = Nic(self.net)
        self.nodes.append(node)
        return node

    def frames(self):
        """Frames the stations made here have put on the wire."""
        return sum(node.sent for node in self.nodes)

    def reply_gets(self, client, *served):
        """Every GET ``client`` has out and, on a simulator, every
        routing-index entry beyond the ``served`` ports: after a
        transaction, the reply GETs it left behind."""
        gets = set(client._sinks)
        if self.net is not None:
            gets |= set(self.net._listeners) - set(served)
        return gets

    def close(self):
        """Close the sockets, if any.  Every pump is told first, so they
        wind down together and not one receive timeout after another."""
        if self.net is None:
            for node in self.nodes:
                node._closed.set()
            for node in self.nodes:
                node.close()
