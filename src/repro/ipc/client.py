"""Client-side stub for talking to object servers.

A :class:`ServiceClient` binds a station to one service's put-port and
turns RPC replies with error status back into the same exceptions the
server raised — so calling a server through the network feels exactly
like calling its object table directly.
"""

from repro.core.rights import Rights
from repro.crypto.randomsrc import RandomSource
from repro.errors import RPCTimeout, SecurityError, code_to_error
from repro.ipc import stdops
from repro.ipc.rpc import trans
from repro.net.message import Message


class ServiceClient:
    """Blocking client for one service.

    Parameters
    ----------
    node:
        The client's station.
    put_port:
        The service's public put-port (usually ``capability.port``).
    expect_signature:
        The service's published F(S); when given, unsigned or forged
        replies are discarded (§2.2 digital signatures).
    locator:
        Optional :class:`~repro.ipc.locate.Locator` used to resolve the
        put-port to a machine for unicast sends.
    """

    def __init__(
        self,
        node,
        put_port,
        rng=None,
        expect_signature=None,
        locator=None,
        timeout=2.0,
        sealer=None,
        signature=None,
        retry=None,
    ):
        self.node = node
        self.put_port = put_port
        self.rng = rng or RandomSource()
        self.expect_signature = expect_signature
        self.locator = locator
        self.timeout = timeout
        #: Optional :class:`~repro.ipc.rpc.RetryPolicy` applied to every
        #: call — at-least-once transactions; pair with a server-side
        #: ReplyCache when the operations are not idempotent.
        self.retry = retry
        #: The client's own signature secret S (a PrivatePort).  Sent in
        #: the signature field so servers that authenticate senders can
        #: match the published image F(S).
        self.signature = signature
        #: §2.4 software protection: encrypt capabilities per destination
        #: machine.  Sealing needs the destination machine, so a sealer
        #: requires a locator.
        self.sealer = sealer
        if sealer is not None and locator is None:
            raise ValueError("capability sealing requires a locator")

    def call(
        self,
        command,
        capability=None,
        data=b"",
        offset=0,
        size=0,
        extra_caps=(),
    ):
        """Perform one transaction; raises the server's error on failure."""
        request = Message(
            command=command,
            capability=capability,
            data=data,
            offset=offset,
            size=size,
            extra_caps=tuple(extra_caps),
        )
        dst_machine = None
        if self.locator is not None:
            dst_machine = self.locator.locate(self.put_port)
        if self.sealer is not None:
            if getattr(dst_machine, "is_replica_set", False):
                # Sealing is per destination machine: bind the call to
                # the set's next in rotation.  (Failover would need a
                # re-seal per candidate; a sealed deployment trades it
                # for the §2.4 cache economics.)
                dst_machine = next(iter(dst_machine.select()), None)
            request = self.sealer.seal_message(request, dst_machine)
        try:
            reply = trans(
                self.node,
                self.put_port,
                request,
                rng=self.rng,
                timeout=self.timeout,
                expect_signature=self.expect_signature,
                dst_machine=dst_machine,
                signature=self.signature,
                retry=self.retry,
                locator=self.locator,
            )
        except RPCTimeout:
            if self.locator is not None:
                # The cached mapping may be the whole problem — a crashed
                # or migrated server (with a replica set, trans already
                # forgot each dead member on the way here, so this drops
                # whatever husk remains).  Invalidate so the caller's
                # next attempt re-broadcasts LOCATE instead of hammering
                # the dark machine.
                self.locator.invalidate(self.put_port)
            raise
        if reply.sealed_caps:
            if self.sealer is None:
                raise SecurityError(
                    "server sent sealed capabilities but this client has no sealer"
                )
            reply = self.sealer.unseal_message(reply, dst_machine)
        if reply.status != 0:
            raise code_to_error(reply.status, reply.data.decode("utf-8", "replace"))
        return reply

    # ------------------------------------------------------------------
    # the standard operations every server offers
    # ------------------------------------------------------------------

    def restrict(self, capability, keep_mask):
        """STD_RESTRICT: fabricate a sub-capability server-side (§2.3).

        This is the explicit round-trip the commutative scheme avoids.
        """
        reply = self.call(
            stdops.STD_RESTRICT, capability=capability, size=int(Rights(keep_mask))
        )
        return reply.capability

    def refresh(self, capability):
        """STD_REFRESH: revoke all outstanding capabilities for the object.

        The client-side half of revocation hygiene: every sealed form of
        the now-dead capabilities is purged from this client's §2.4
        cache, so later seals of the fresh capability cannot collide
        with stale triples (the server purges its own caches through the
        object table's revocation hook).
        """
        reply = self.call(stdops.STD_REFRESH, capability=capability)
        if self.sealer is not None:
            self.sealer.invalidate_object(capability.port, capability.object)
        return reply.capability

    def destroy(self, capability):
        """STD_DESTROY: delete the object."""
        self.call(stdops.STD_DESTROY, capability=capability)
        if self.sealer is not None:
            self.sealer.invalidate_object(capability.port, capability.object)

    def touch(self, capability):
        """STD_TOUCH: validate and mark the object as recently used."""
        self.call(stdops.STD_TOUCH, capability=capability)
