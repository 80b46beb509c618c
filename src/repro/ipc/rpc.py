"""The transaction engine (§2.1) and its scheduling policies.

The whole client-side protocol is four steps: pick a fresh reply
get-port G', listen on it, send the request with G' in the reply field
(the F-box puts F(G') on the wire), and wait for the reply.  A fresh G'
per transaction means stale replies from earlier transactions land on
ports nobody listens to — the system needs no sequence numbers.  The
first two steps are one station call, ``listen_reply``: the station
draws and images reply ports a block at a time and deals each once, so
the freshness is the paper's and only the cost is shared.

That protocol is stated once, in :class:`AsyncTrans`: issue on
construction, one screened wait loop, retransmit, cancel.  Everything
else here is a policy on *how transactions are scheduled*, never a
second copy of the protocol:

* **blocking** — :func:`trans` is submit-then-result;
* **at-least-once** — a :class:`RetryPolicy` is a schedule of waits,
  each ending in a retransmission; ``retry=None`` is the empty schedule
  (zero retransmissions, one wait to the deadline);
* **replica failover** — :func:`_failover` re-enters the public
  :func:`trans` / :func:`trans_many` once per candidate machine;
* **pipelined** — :func:`trans_many` issues every request before it
  collects the first reply.  Two stations can issue and collect a whole
  batch at once and get a lane for it (:func:`_issue_batch`, then
  :func:`_collect_drained` on a deferred-delivery :class:`Nic`,
  :func:`_collect_queues` on a :class:`SocketNode`), chosen from the
  station's type and discipline; any other station, and any batch with
  a retry schedule, rides N engine instances.

Replies may optionally be authenticated against a server's published
signature image F(S): forged replies (which *are* deliverable, since the
reply put-port is visible on the wire) then fail the signature comparison
and are discarded.  This is the digital-signature mechanism of §2.2.
"""

import random
import time

from repro.core.ports import as_port, draw_ports
from repro.crypto.randomsrc import RandomSource
from repro.errors import PartitionSuspected, PortNotLocated, RPCError, RPCTimeout
from repro.net.nic import Nic
from repro.net.sockets import SocketNode

_DEFAULT_RNG = RandomSource()


class RetryPolicy:
    """Retransmission schedule for at-least-once transactions.

    A transaction given a policy is transmitted, then retransmitted each
    time a backoff wait expires without an acceptable reply — up to
    ``attempts`` *re*transmissions, all under the transaction's overall
    ``timeout`` budget (the deadline always wins; backoff never extends
    it).  Waits grow exponentially from ``rto`` by ``multiplier`` up to
    ``cap``, with a seeded multiplicative jitter in ``[1, 1+jitter)`` so
    a fleet of synchronized clients spreads out instead of thundering in
    lockstep — yet every run with the same seed replays the same
    schedule, which is what the DES determinism contract requires.

    The crucial protocol property: a retransmission reuses the *same*
    reply secret G', so every copy of the request carries the same F(G')
    on the wire.  That pair — unforgeable source address, fresh-per-
    transaction reply port — is the transaction id the server's
    duplicate-suppression cache keys on (:mod:`repro.ipc.server`); no
    wire-format change is needed.

    A backoff wait is a *continued wait on the reply port*, never a
    blind sleep: a reply landing mid-backoff is taken immediately.
    """

    __slots__ = ("attempts", "rto", "cap", "multiplier", "jitter", "_rng",
                 "_ladder")

    def __init__(self, attempts=4, rto=0.05, cap=1.0, multiplier=2.0,
                 jitter=0.1, seed=0):
        if attempts < 0:
            raise ValueError("attempts cannot be negative")
        if rto <= 0 or cap <= 0:
            raise ValueError("rto and cap must be positive")
        if multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if jitter < 0:
            raise ValueError("jitter cannot be negative")
        self.attempts = attempts
        self.rto = rto
        self.cap = cap
        self.multiplier = multiplier
        self.jitter = jitter
        self._rng = random.Random(seed)
        # The un-jittered schedule is the same for every transaction.
        self._ladder = ladder = []
        wait = rto
        for _ in range(attempts):
            ladder.append(wait)
            wait = min(wait * multiplier, cap)

    def waits(self):
        """One transaction's backoff schedule: ``attempts`` waits, each
        the pause before the next retransmission.  Jitter is drawn from
        the policy's seeded RNG per call — one draw per wait, in order —
        so concurrent transactions sharing a policy get different (but
        reproducible) schedules."""
        jitter = self.jitter
        if not jitter:
            return list(self._ladder)
        draw = self._rng.random
        return [wait * (1.0 + draw() * jitter) for wait in self._ladder]

    def __repr__(self):
        return "RetryPolicy(attempts=%d, rto=%g, cap=%g, multiplier=%g)" % (
            self.attempts, self.rto, self.cap, self.multiplier,
        )


def _outgoing(request, dest, reply_secret, sig_port):
    """One private copy of the caller's request, addressed and carrying
    the reply secret — made afresh for *every* transmission: the F-box
    transforms the outgoing copy in place on egress, so re-sending a
    previous copy would double-one-way its reply/signature fields (the
    same corruption an intruder replay exhibits).  Trusted copy: the
    request was validated when it was constructed, and every replacement
    value here is a Port."""
    outgoing = request._evolve(dest=dest, reply=reply_secret, is_reply=False)
    if sig_port is not None:
        outgoing.signature = sig_port
    return outgoing


def _affinity_key(request):
    """The spread key for replica selection: the object number the
    request names, so a rendezvous-hash policy gives every client the
    same per-object home replica.  Header-only requests spread by
    policy default."""
    capability = request.capability
    return capability.object if capability is not None else None


def _await_reply(node, wire_reply, expect, until, read_clock=None):
    """The one wait: take frames off a reply port until one passes
    signature screening or ``until`` (on the station's clock; None means
    do not wait at all) has passed.  Returns the reply message or None.

    A backoff wait is thus a continued wait on the reply port, never a
    blind sleep.  A ``wait_wire`` that comes back empty is final on
    every station — the budget is spent, or (the synchronous and
    deferred simulators) a dry pump means the reply can no longer arrive
    *this round*, so retransmission attempts, not wall time, bound the
    retry loop there.
    """
    while True:
        # Fast path first: on the synchronous simulator the reply is
        # already queued, so no clock reads are needed at all.
        frame = node.poll_wire(wire_reply)
        if frame is None:
            if until is None:
                return None
            # No budget left is an empty wait too.
            frame = node.wait_wire(wire_reply, until - read_clock())
            if frame is None:
                return None
        reply = frame.message
        if expect is None or reply.signature == expect:
            return reply
        # A forged reply: discard it, keep waiting for the genuine one.


class AsyncTrans:
    """One transaction: issued on construction, collected later.

    The constructor runs the issue half of the protocol — fresh reply
    secret, GET on it, request copied and PUT through the F-box — and
    returns with the transaction in flight.  :meth:`result` runs the
    collect half.  Between the two, any number of sibling transactions
    may be issued on the same station; each holds its own fresh reply
    port, so replies cannot cross (§2.1's freshness argument).

    The reply secret G' is a bare :class:`Port` — a fresh 48-bit value
    per transaction, exactly what ``PrivatePort.generate`` produces,
    minus a wrapper the hot path would immediately unwrap again.  Unlike
    PrivatePort, Port's repr shows the value, so containment matters:
    nothing here logs or reprs it, and ``put_owned`` replaces it with
    F(G') in place on egress.  (Like any recently one-wayed value it does
    transit the F-box image cache, and before that it waits — imaged,
    not listened on — in the station's reply pool; see the
    cache-retention note in docs/PERFORMANCE.md.)  ``reply_secret`` is
    for internal batch issuers (``trans_many`` draws one pooled block of
    randomness for a whole batch) and is admitted by ``listen_fresh`` —
    a sink and no routing-index entry; a secret whose wire port already
    has a GET raises RPCError rather than share that sink.
    Ordinary callers leave it None and the station deals a pair from its
    pool for ``rng`` (``listen_reply``) — after the replica pick, so a
    refused destination draws and listens nothing.

    With ``retry`` (a :class:`RetryPolicy`), :meth:`result` retransmits
    the request on backoff expiry — same reply secret every time, so the
    server's duplicate suppression sees one transaction (a fresh secret
    per attempt would defeat it) — and :meth:`cancel` withdraws the
    pending retransmit state along with the reply GET.
    """

    __slots__ = (
        "node",
        "wire_reply",
        "expect_signature",
        "_reply",
        "_cancelled",
        "_waits",
        "_request",
        "_dest",
        "_dst_machine",
        "_sig_port",
        "_reply_secret",
    )

    def __init__(
        self,
        node,
        dest_port,
        request,
        rng=None,
        expect_signature=None,
        dst_machine=None,
        signature=None,
        reply_secret=None,
        retry=None,
    ):
        if getattr(dst_machine, "is_replica_set", False):
            # A pipelined issue binds to one replica up front — failover
            # mid-flight is the blocking path's job — but the spread
            # policy still decides *which* one, so a burst of issues
            # load-balances like blocking calls do.
            candidates = dst_machine.select(_affinity_key(request))
            if not candidates:
                raise PortNotLocated(
                    "replica set for port %r has no members"
                    % as_port(dest_port)
                )
            dst_machine = candidates[0]
        self.node = node
        self.expect_signature = expect_signature
        self._reply = None
        self._cancelled = False
        # The pristine request and routing are kept so every
        # transmission can take its own copy (see _outgoing).
        self._request = request
        self._dest = as_port(dest_port)
        self._dst_machine = dst_machine
        self._sig_port = as_port(signature) if signature is not None else None
        # Last, so that arguments refused above leave no GET behind.
        # Either GET hands back the wire port F(G'); holding on to it
        # lets every poll and the unlisten skip re-deriving it.
        if reply_secret is None:
            reply_secret, self.wire_reply = node.listen_reply(
                rng or _DEFAULT_RNG)
        else:
            wires = node.listen_fresh((reply_secret,))
            if wires is None:
                raise RPCError("the reply port already has a GET")
            self.wire_reply = wires[0]
        self._reply_secret = reply_secret
        try:
            self._transmit()
        except BaseException:
            node.unlisten_wire(self.wire_reply)
            raise
        self._waits = retry.waits() if retry is not None else ()

    def _transmit(self):
        """Put one copy of the request on the wire — the first, and
        every retransmission (same reply secret: one transaction as far
        as the server can tell).  A port-addressed send that no station
        admits raises, first copy or fifth."""
        # put_owned: the copy is ours, never reused after this call, so
        # the F-box may transform it in place.
        accepted = self.node.put_owned(
            _outgoing(self._request, self._dest, self._reply_secret,
                      self._sig_port),
            self._dst_machine,
        )
        if not accepted and self._dst_machine is None:
            raise PortNotLocated(
                "no server is listening on port %r" % (self._dest,)
            )

    @property
    def done(self):
        """True once an acceptable reply has been collected."""
        return self._reply is not None

    def _await(self, until, read_clock=None):
        """:func:`_await_reply` on this transaction's reply port; an
        accepted reply settles the transaction and withdraws its GET."""
        reply = _await_reply(self.node, self.wire_reply,
                             self.expect_signature, until, read_clock)
        if reply is not None:
            self._reply = reply
            if not self._cancelled:
                # cancel() already released the GET; unlistening the
                # same wire port twice would tear down a listener a
                # later transaction may have re-registered.
                self.node.unlisten_wire(self.wire_reply)
        return reply

    def poll(self):
        """Non-blocking: the reply if it has arrived, else None.

        Does not pump the network; combine with ``node.pump()`` for
        manual scheduling.
        """
        if self._reply is not None:
            return self._reply
        return self._await(None)

    def result(self, timeout=2.0):
        """Collect the reply, driving delivery as needed: a deferred
        simulator is pumped, a socket blocks on the reply queue, a DES
        station consumes virtual time.  Each wait of the retry schedule
        that expires retransmits, all under the one ``timeout`` deadline
        (which always wins; backoff never extends it).  Raises
        :class:`RPCTimeout` when no acceptable reply arrives; the reply
        GET is withdrawn on every way out.
        """
        reply = self._reply
        if reply is None:
            reply = self._await(None)
        if reply is not None:
            return reply
        # The timeout budget is spent on the station's own clock: wall
        # time for real wires, *virtual* time on a DES network (where a
        # wall-clock deadline would be meaningless — the whole wait costs
        # microseconds of host time).
        clock = self.node.clock
        read_clock = time.monotonic if clock is None else lambda: clock.now
        transmissions = 1
        try:
            deadline = read_clock() + timeout
            for wait in self._waits:
                reply = self._await(min(read_clock() + wait, deadline),
                                    read_clock)
                if reply is not None:
                    return reply
                if self._cancelled or read_clock() >= deadline:
                    break
                self._transmit()
                transmissions += 1
            # Schedule exhausted (or the deadline passed inside it): one
            # final wait runs the remaining budget down to the deadline.
            if not self._cancelled:
                reply = self._await(deadline, read_clock)
                if reply is not None:
                    return reply
        finally:
            self.cancel()
        raise RPCTimeout(
            "no reply after %d transmissions within %.3fs from port %r"
            % (transmissions, timeout, self._dest)
        )

    def cancel(self):
        """Withdraw the reply GET and purge pending retransmit state.

        Idempotent and safe in every state: after :meth:`result`, after
        an earlier cancel, and when a late duplicate reply is already
        queued on the reply port — the GET is released exactly once, no
        retransmission can fire afterwards, and a reply arriving after
        cancellation is dropped at the (now silent) wire port instead of
        leaking a listener-index entry.
        """
        self._waits = ()
        if self._cancelled or self._reply is not None:
            return
        self._cancelled = True
        self.node.unlisten_wire(self.wire_reply)

    def __repr__(self):
        state = "done" if self._reply is not None else "in flight"
        return "AsyncTrans(%s, wire_reply=%r)" % (state, self.wire_reply)


def trans(
    node,
    dest_port,
    request,
    rng=None,
    timeout=2.0,
    expect_signature=None,
    dst_machine=None,
    signature=None,
    retry=None,
    locator=None,
):
    """Send one request and block for its reply.

    Parameters
    ----------
    node:
        A station (:class:`~repro.net.nic.Nic`,
        :class:`~repro.net.sockets.SocketNode`, or anything else that
        keeps the :class:`~repro.net.nic.Station` contract).
    dest_port:
        The service's public put-port.
    request:
        The :class:`~repro.net.message.Message` to send; its ``dest`` and
        ``reply`` fields are filled in here.
    expect_signature:
        The server's published signature image F(S); replies whose
        signature field differs are discarded as forgeries.
    dst_machine:
        Located machine address for unicast (see
        :class:`~repro.ipc.locate.Locator`); ``None`` lets the admission
        filters route.
    signature:
        The *client's* signature secret (a :class:`PrivatePort`), placed
        in the signature field for server-side sender authentication.
    retry:
        An optional :class:`RetryPolicy` turning the transaction into an
        at-least-once exchange: the request is retransmitted on backoff
        expiry (same reply secret each time), still under the one
        ``timeout`` deadline.  None (the default) is the classic
        send-once transaction.
    locator:
        With a replica-set ``dst_machine``, the
        :class:`~repro.ipc.locate.Locator` (or anything with
        ``invalidate_member``) to notify when one replica times out —
        only the dead member is forgotten, never the whole entry.

    When ``dst_machine`` is a :class:`~repro.ipc.replica.ReplicaSet`
    the transaction becomes replica-aware (see :func:`_failover`): an
    ``RPCTimeout`` fails over to the next replica instead of surfacing,
    and only when every member is silent does the timeout propagate.

    Raises
    ------
    PortNotLocated
        No station admitted a port-addressed request frame — the first
        transmission or a retransmission — or the replica set has no
        members.
    RPCTimeout
        No (acceptable) reply arrived within ``timeout`` seconds.
    """
    if getattr(dst_machine, "is_replica_set", False):
        return _failover(
            trans, _affinity_key(request), node, dest_port, request, rng,
            timeout, expect_signature, dst_machine, signature, retry, locator,
        )
    return AsyncTrans(
        node, dest_port, request, rng, expect_signature, dst_machine,
        signature, None, retry,
    ).result(timeout)


def _failover(attempt, key, node, dest_port, payload, rng, timeout,
              expect_signature, replicas, signature, retry, locator):
    """The replica-failover policy of :func:`trans` and
    :func:`trans_many` (``attempt`` is whichever of the two is failing
    over; ``payload`` its request or request list).

    One logical port, N machines: candidates come ordered from the
    set's spread policy (per-object rendezvous affinity when ``key`` is
    an object number); each gets an equal slice of the timeout budget (a
    dead replica must not consume the whole deadline, and any ``retry``
    schedule runs inside its slice), and a timed-out candidate is
    reported to the locator — which forgets only that member — before
    the next one is tried.  Each attempt is an ordinary transaction (or
    batch) with *fresh* reply secrets; at-least-once semantics across
    replicas come from the per-replica ReplyCache contract, not from
    sharing G' across machines (a reply from a replica we already gave
    up on must land on a dead port, not be mistaken for the current
    attempt's answer).
    """
    dest = as_port(dest_port)
    candidates = replicas.select(key)
    if not candidates:
        raise PortNotLocated(
            "replica set for port %r has no members" % (dest,)
        )
    slice_timeout = timeout / len(candidates)
    last_error = None
    for machine in candidates:
        try:
            return attempt(
                node, dest, payload, rng=rng, timeout=slice_timeout,
                expect_signature=expect_signature, dst_machine=machine,
                signature=signature, retry=retry,
            )
        except RPCTimeout as exc:
            last_error = exc
            if locator is not None:
                locator.invalidate_member(dest, machine)
    # One silent member is a crash; every member of a replicated pool
    # going silent in one transaction smells like the network, not the
    # service.
    error = PartitionSuspected if len(candidates) >= 2 else RPCTimeout
    raise error(
        "no reply from any of %d replicas of port %r within %.3fs"
        % (len(candidates), dest, timeout)
    ) from last_error


# ----------------------------------------------------------------------
# pipelined transactions
# ----------------------------------------------------------------------


def trans_many(
    node,
    dest_port,
    requests,
    rng=None,
    timeout=2.0,
    expect_signature=None,
    dst_machine=None,
    signature=None,
    retry=None,
    locator=None,
):
    """Issue every request with its own fresh reply port, then collect.

    The pipelined counterpart of :func:`trans`: all N requests are put on
    the wire (or the event-loop queues) before the first reply is
    awaited, and the replies come back in request order.  The reply
    secrets for the whole batch are drawn from one pooled randomness
    read, so issuing is O(N) dict work plus exactly N F-box transforms.

    A replica-set ``dst_machine`` binds the whole batch to one replica
    (chosen by the set's spread policy on the first request's object) so
    the batch lanes keep their single-destination shape; an
    ``RPCTimeout`` fails the *batch* over to the next replica, reporting
    the dead member to ``locator`` like :func:`trans` does.

    Raises whatever the underlying transactions raise; on any failure all
    outstanding reply GETs are withdrawn, so a failed batch leaves no
    listener-index residue.
    """
    requests = list(requests)
    if not requests:
        return []
    if getattr(dst_machine, "is_replica_set", False):
        return _failover(
            trans_many, _affinity_key(requests[0]), node, dest_port,
            requests, rng, timeout, expect_signature, dst_machine,
            signature, retry, locator,
        )
    dest = as_port(dest_port)
    rng = rng or _DEFAULT_RNG
    sig_port = as_port(signature) if signature is not None else None
    secrets = draw_ports(rng, len(requests))
    # The batch lanes are single-shot by construction; a retry schedule
    # needs per-transaction backoff state, so such a batch rides N
    # engines below (still issued before the first collect — the
    # pipelining survives, only the bulk issue is given up).
    collect = None
    if retry is None:
        if type(node) is Nic and node.supports_batch_serve:
            collect = _collect_drained
        elif type(node) is SocketNode:
            collect = _collect_queues
    if collect is not None:
        for _ in range(4):
            wires = _issue_batch(node, dest, requests, secrets, dst_machine,
                                 sig_port)
            if wires is not None:
                return collect(node, wires, dest, expect_signature, timeout)
            # A wire-port collision inside the batch (or with an
            # existing GET).  With 48-bit random ports this is a
            # cosmic-ray case; redrawing fresh secrets resolves it —
            # sharing a sink would cross two transactions' replies.
            secrets = draw_ports(rng, len(requests))
        # Randomness is demonstrably broken (four colliding batches);
        # the engines below raise if it still collides.
    calls = []
    try:
        for request, secret in zip(requests, secrets):
            calls.append(
                AsyncTrans(
                    node, dest, request, None, expect_signature,
                    dst_machine, sig_port, secret, retry,
                )
            )
        return [call.result(timeout) for call in calls]
    except BaseException:
        for call in calls:
            call.cancel()
        raise


def _issue_batch(node, dest, requests, secrets, dst_machine, sig_port):
    """The issue half both batch lanes share: protocol-identical to
    issuing N :class:`AsyncTrans` (fresh reply port each, the same F-box
    transformation per message) but batchwise — one ``listen_fresh``
    admission of every reply port, one ``put_owned_bulk`` burst.
    Returns the wire reply ports, now the collect half's to withdraw, or
    None on a reply-port collision (nothing listened; caller redraws).
    """
    wires = node.listen_fresh(secrets)
    if wires is None:
        return None
    try:
        outgoing = [
            _outgoing(request, dest, secret, sig_port)
            for request, secret in zip(requests, secrets)
        ]
        accepted = node.put_owned_bulk(outgoing, dst_machine)
        if accepted == 0 and dst_machine is None:
            raise PortNotLocated(
                "no server is listening on port %r" % (dest,)
            )
    except BaseException:
        for wire_reply in wires:
            node.unlisten_wire(wire_reply)
        raise
    return wires


def _no_reply(dest):
    return RPCTimeout(
        "pipelined transaction got no reply from port %r" % (dest,)
    )


def _collect_queues(node, wires, dest, expect_signature, timeout):
    """Collect half for a :class:`SocketNode` — real pipelining.

    The replies are awaited in request order with every GET still
    admitted (each transaction keeps its own ``timeout`` budget, like
    ``AsyncTrans.result``), and the GETs are withdrawn together at the
    end.  While the client blocks on reply *i*, the server
    is already working on *i+1..N* — which is where the multiplicative
    win over serial ``trans`` comes from on a real wire.
    """
    clock = time.monotonic
    try:
        replies = []
        for wire_reply in wires:
            reply = _await_reply(node, wire_reply, expect_signature,
                                 clock() + timeout, clock)
            if reply is None:
                raise _no_reply(dest)
            replies.append(reply)
        return replies
    finally:
        node.unlisten_wire_many(wires)


def _collect_drained(node, wires, dest, expect_signature, timeout):
    """Collect half for a Nic on a deferred-delivery network: one drain,
    one ``take_many``.  ``timeout`` buys nothing here — the simulator is
    deterministic, so after the drain each reply either arrived or never
    will."""
    try:
        # Everything in flight: requests, handler replies, and whatever
        # those spawn.
        node.pump()
    finally:
        queues = node.take_many(wires)  # withdraws every reply GET
    replies = []
    for q in queues:
        frame = q.popleft() if q else None
        if expect_signature is not None:
            while frame is not None and (
                frame.message.signature != expect_signature
            ):
                frame = q.popleft() if q else None
        if frame is None:
            raise _no_reply(dest)
        replies.append(frame.message)
    return replies
