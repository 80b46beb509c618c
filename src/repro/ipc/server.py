"""The server skeleton: dispatch, standard operations, signed replies.

An :class:`ObjectServer` is the reusable shape of every Amoeba service in
§3: a secret get-port, a published put-port and signature image, an
object table protected by one of the §2.3 schemes, and a command
dispatcher.  Subclasses declare operations with the :func:`command`
decorator and get the standard capability operations (INFO, RESTRICT,
REFRESH, DESTROY, TOUCH) for free.

Servers are deliberately ordinary processes: nothing here is privileged,
and several servers can run on one machine or the same server on several
machines (the network round-robins among listeners on a shared port).
"""

import threading
from collections import Counter, OrderedDict

from repro.core.ports import PrivatePort, as_port
from repro.core.registry import ObjectTable
from repro.core.rights import NO_RIGHTS, Rights
from repro.core.schemes import XorOneWayScheme
from repro.crypto.randomsrc import RandomSource
from repro.errors import (
    AmoebaError,
    BadRequest,
    SecurityError,
    Verdict,
    error_to_code,
    refuse,
)
from repro.ipc import stdops
from repro.net.message import Message


#: The rights bit that guards REFRESH (revocation) and DESTROY.
ADMIN = Rights(stdops.RIGHT_ADMIN)


def command(opcode, needs=None, extra=None):
    """Declare a method as the handler for operation code ``opcode``.

    ``needs`` is the rights mask its header capability must hold (None:
    it takes none), ``extra`` the mask every extra capability must hold
    (None: they are not this server's).  Dispatch admits both before the
    handler runs; the handler reads the rows as ``ctx.entry`` and
    ``ctx.extras`` and returns a reply :class:`Message` (usually via
    :meth:`RequestContext.ok`).
    """

    def decorate(fn):
        fn._amoeba_command = (opcode, needs, extra)
        return fn

    return decorate


class ReplyCache:
    """Bounded per-client reply cache: server-side duplicate suppression.

    At-least-once clients (:class:`~repro.ipc.rpc.RetryPolicy`) may
    retransmit a request whose reply was lost; re-executing it would
    double-apply any non-idempotent operation (a bank transfer paid
    twice).  The cache keys each transaction by the pair that is already
    on the wire:

    * ``frame.src`` — the network-stamped source machine address, which
      §2.4's hardware assumption makes unforgeable; and
    * the request's reply put-port ``F(G')`` — fresh per transaction
      (§2.1's freshness argument) yet identical across retransmissions,
      because a retry reuses the same reply secret.

    No sequence numbers, no wire-format change.  An intruder replaying a
    captured frame from its own station presents a *different* ``src``,
    so it can never touch another principal's entries — and the replay's
    double-one-wayed capability still fails validation in the handler,
    exactly as without the cache.

    Both dimensions are LRU-bounded (``clients`` machines x
    ``per_client`` transactions), so the memory cost is a hard constant;
    an evicted entry simply means a sufficiently *stale* duplicate
    re-executes, which is the classic trade-off of bounded dedup.

    Each entry is a one-element slot.  Its states: executing (``[None]``
    — duplicates are dropped while the first copy runs) and completed
    (the cached reply is replayed verbatim; error replies replay too —
    at-least-once applies to outcomes, not just successes).
    :meth:`begin` hands the server a first sighting's slot, and the
    reply tail fills it in place: no second lock, no second lookup; a
    slot evicted first is unreachable.
    """

    def __init__(self, per_client=128, clients=64):
        if per_client < 1 or clients < 1:
            raise ValueError("cache bounds must be at least 1")
        self.per_client = per_client
        self.clients = clients
        # src -> OrderedDict[reply port -> [Message | None]], both in LRU.
        self._clients = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.busy_drops = 0
        self.evictions = 0

    def _client(self, src):
        """Find or admit this client's LRU and make it the most recent;
        admission evicts the oldest client at the bound.  Caller holds
        ``_lock``.  (:meth:`begin` runs it inline.)"""
        client = self._clients.get(src)
        if client is None:
            if len(self._clients) >= self.clients:
                self._clients.popitem(last=False)
                self.evictions += 1
            self._clients[src] = client = OrderedDict()
        else:
            self._clients.move_to_end(src)
        return client

    def begin(self, src, reply_port):
        """Admit one request copy; returns ``(verdict, value)``.

        ``"miss"`` — first sighting; the caller must execute the request
        and fill the returned slot (``slot[0] = reply``).  ``"hit"`` — a
        completed duplicate; replay the returned reply.  ``"busy"`` — a
        duplicate of a still-executing request; drop it.
        """
        with self._lock:
            clients = self._clients
            client = clients.get(src)
            if client is None:
                if len(clients) >= self.clients:
                    clients.popitem(last=False)
                    self.evictions += 1
                clients[src] = client = OrderedDict()
            else:
                clients.move_to_end(src)
            slot = client.get(reply_port)
            if slot is None:
                if len(client) >= self.per_client:
                    client.popitem(last=False)
                    self.evictions += 1
                client[reply_port] = slot = [None]
                self.misses += 1
                return ("miss", slot)
            cached = slot[0]
            if cached is None:
                self.busy_drops += 1
                return ("busy", None)
            client.move_to_end(reply_port)
            self.hits += 1
            return ("hit", cached)

    def store(self, src, reply_port, reply):
        """Complete a transaction: future duplicates replay ``reply``.

        A no-op unless the entry is still present (it may have been
        LRU-evicted while the handler ran) — storing an unmarked entry
        would let an unrelated send poison the cache.
        """
        with self._lock:
            client = self._clients.get(src)
            slot = client.get(reply_port) if client is not None else None
            if slot is not None:
                slot[0] = reply

    def seed(self, src, reply_port, reply):
        """Install a *completed* entry directly — no begin() preceded it.

        Reboot recovery uses this: transactions whose commit record
        survived the crash are re-admitted as already-answered, so a
        client retry that straddles the restart replays the durable
        reply instead of re-executing.  Same LRU bounds as live entries.
        """
        with self._lock:
            client = self._client(src)
            slot = client.get(reply_port)
            if slot is None:
                if len(client) >= self.per_client:
                    client.popitem(last=False)
                    self.evictions += 1
                client[reply_port] = [reply]
            else:
                slot[0] = reply
                client.move_to_end(reply_port)

    def stats(self):
        """Cache counters as a dict (stable keys for benchmarks)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "busy_drops": self.busy_drops,
                "evictions": self.evictions,
                "clients": len(self._clients),
                "entries": sum(len(c) for c in self._clients.values()),
            }


class RequestContext:
    """Everything a handler needs about one incoming request."""

    __slots__ = ("server", "frame", "request", "entry", "extras")

    def __init__(self, server, frame, request=None, entry=None, extras=()):
        self.server = server
        self.frame = frame
        # The rows of the capabilities admission validated (command()).
        self.entry, self.extras = entry, extras
        # The request may differ from frame.message when §2.4 sealing is
        # in use (capabilities have been decrypted back to plaintext).
        self.request = request if request is not None else frame.message

    @property
    def capability(self):
        """The capability in the request header (may be ``None``)."""
        return self.request.capability

    def ok(self, data=b"", capability=None, offset=0, size=0, extra_caps=()):
        """Build a success reply to this request.

        Uses the trusted ``reply_to`` path (which range-guards the
        handler-supplied numeric fields), with the server's signature
        secret already stamped — the seal step then skips its own
        stamping copy.

        The returned reply belongs to the dispatch loop, which transforms
        it in place on egress; handlers must return it, not retain it.
        """
        return self.request.reply_to(
            data, 0, capability, offset, size,
            tuple(extra_caps) if extra_caps else (),
            self.server._signature_port,
        )

    def error(self, exc):
        """Build an error reply carrying the exception's wire code."""
        return self.request.reply_to(
            str(exc).encode("utf-8"), error_to_code(exc),
            signature=self.server._signature_port,
        )


class ObjectServer:
    """Base class for every object-managing service.

    Parameters
    ----------
    node:
        The station this server receives on.
    scheme:
        A §2.3 protection scheme; defaults to the XOR-one-way scheme that
        production Amoeba used.
    rng:
        Randomness for ports, signatures, and object secrets.
    """

    #: Human-readable service name, for error messages.
    service_name = "object server"

    def __init__(
        self,
        node,
        scheme=None,
        rng=None,
        get_port=None,
        signature=None,
        sealer=None,
        require_sealed=False,
        dedup=None,
        store=None,
    ):
        self.node = node
        #: Optional duplicate suppression for at-least-once clients:
        #: ``True`` for a default-bounded :class:`ReplyCache`, a
        #: ReplyCache instance for tuned bounds, None/False (the
        #: default) for the classic execute-every-copy behavior — the
        #: fault path stays fully off unless asked for.
        if dedup is True:
            self.reply_cache = ReplyCache()
        elif dedup:
            self.reply_cache = dedup
        else:
            self.reply_cache = None
        self.rng = rng or RandomSource()
        self.scheme = scheme or XorOneWayScheme()
        self.get_port = get_port or PrivatePort.generate(self.rng)
        #: The server's signature secret S; F(S) is published.
        self.signature = signature or PrivatePort.generate(self.rng)
        self.put_port = self.get_port.public
        #: §2.4 software protection: decrypts request capabilities by
        #: source machine and encrypts reply capabilities by destination.
        self.sealer = sealer
        #: When True, plaintext capabilities are refused outright (a
        #: matrix-protected deployment).
        self.require_sealed = require_sealed
        #: Optional sender authentication (§2.2 digital signatures): the
        #: published client images F(S) :meth:`authorize_client` admitted.
        #: Once one is, requests whose signature field is not in the set
        #: are refused — and since the F-box one-ways the field, only the
        #: true owner of S can produce a matching value.
        self.authorized_signatures = None
        #: Optional durability (:class:`~repro.disk.wal.DurableStore`):
        #: the object table write-ahead-logs every surviving mutation to
        #: it, :meth:`checkpoint` snapshots through it, and
        #: :meth:`reboot` replays it after a crash.  With ``dedup`` also
        #: on, every replied transaction additionally logs a commit
        #: record, extending duplicate suppression across reboots.
        self.store = store
        self.table = ObjectTable(
            self.scheme, self.put_port, self.rng, wal=store
        )
        if sealer is not None:
            # Revocation hygiene: when a secret dies (REFRESH, DESTROY,
            # aging) the sealer's §2.4 caches must drop that object's
            # triples, or a replayed sealed blob keeps short-circuiting
            # decryption with the revoked capability.
            self.table.on_revocation(
                lambda port, number, _generation: (
                    sealer.invalidate_object(port, number)
                )
            )
        self._commands = {op: (getattr(self, name), needs, extra)
                          for op, name, needs, extra in self.rights_table()}
        self._running = False
        #: Count of requests handled, by opcode (experiment bookkeeping).
        #: A Counter, so reading a never-seen opcode yields 0.
        self.request_counts = Counter()
        #: Set False to skip the per-request count — throughput harnesses
        #: that never read the counts keep it off the hot path.
        self.count_requests = True
        # The signature secret as a Port, stamped into every reply; built
        # once here instead of once per frame.
        self._signature_port = as_port(self.signature)
        self._plain_replies = (  # see _seal_reply
            sealer is None and self.reply_cache is None and store is None)

    @property
    def signature_image(self):
        """F(S), the published verifier for this server's replies."""
        return self.signature.public

    @classmethod
    def rights_table(cls):
        """The §2.3 rights table, ``(opcode, handler name, needs, extra)``
        sorted by opcode: what dispatch admits, as data."""
        table = {}
        for name in dir(cls):
            declared = getattr(getattr(cls, name), "_amoeba_command", None)
            if declared is not None:
                if declared[0] in table:
                    raise ValueError("duplicate handler for opcode %d in %s"
                                     % (declared[0], cls.__name__))
                table[declared[0]] = (declared[0], name) + declared[1:]
        return sorted(table.values())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Enter the GET loop (register the request handler).

        A station that delivers ingress in runs (a deferred or DES
        network's event loop, a socket pump's recv burst) gets the
        *batch* handler, whose replies leave in one bulk unicast per
        run; a synchronous simulated network gets :meth:`_serve_frame`
        itself, the per-request step the batch handler loops over, so
        the dispatch semantics cannot differ.
        """
        if self.store is not None and self.store.needs_recovery:
            raise AmoebaError(
                "the durable store holds un-recovered state; "
                "call reboot() before start()"
            )
        if self.node.supports_batch_serve:
            self.node.serve_batch(self.get_port, self._handle_frames)
        else:
            self.node.serve(self.get_port, self._serve_frame)
        self._running = True
        return self

    def stop(self):
        self.node.unlisten(self.get_port)
        self._running = False

    @property
    def running(self):
        return self._running

    # ------------------------------------------------------------------
    # durability protocol
    # ------------------------------------------------------------------

    def checkpoint(self):
        """Snapshot the object table and truncate its log.

        Run this periodically (a sweep timer, every N requests): the
        rows are encoded under one hold of the table lock and written
        outside it.
        """
        if self.store is None:
            raise AmoebaError("checkpoint() requires a durable store")
        self.store.snapshot(self.table)

    def reboot(self):
        """Recover this server's state from its durable store.

        The reboot protocol after a crash: construct a *new* server on
        the old disk (the attaching :class:`~repro.disk.wal.DurableStore`
        scans snapshot + log), keep the old ``get_port`` so the old
        put-port still locates, and call ``reboot()`` before
        ``start()``.  Recovery replays snapshot + log into the table;
        after a suspect log tail (a torn sector) every row comes back
        with a regenerated secret and a bumped generation, so
        outstanding capabilities fail §2.2 check validation — clients
        see ``InvalidCapability``/``NoSuchObject`` and re-acquire
        through the retry + re-locate path, exactly the revocation
        policy.

        With dedup enabled, recovered commit records re-seed the reply
        cache (re-stamped with *this* incarnation's signature secret,
        since the old one died with the process), so a retry straddling
        the reboot replays its durable reply instead of re-executing.

        Returns the :class:`~repro.disk.wal.RecoveryReport`.
        """
        if self.store is None:
            raise AmoebaError("reboot() requires a durable store")
        if len(self.table):
            raise AmoebaError("reboot() must run on an empty object table")
        report = self.store.recover(self.table, rng=self.rng)
        if self.reply_cache is not None:
            for (src, reply_port), raw in report.commits.items():
                try:
                    reply = Message.unpack(raw)
                except Exception as exc:
                    # Not replayable: its retry re-executes.  Counted,
                    # so a codec drift between incarnations shows.
                    report.commits_unreplayable += 1
                    report.commit_error = exc
                    continue
                reply = reply._evolve(signature=self._signature_port)
                self.reply_cache.seed(src, reply_port, reply)
        return report

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _serve_frame(self, frame, outbox=None):
        """The one per-request step: admit → count → dispatch (sender
        auth, unsealing, the handler, both error arms) → seal → egress,
        at once to ``frame.src`` as the per-frame handler :meth:`start`
        registers, or into :meth:`_handle_frames`'s ``outbox`` for that
        run's one bulk egress (batching is the loop, not a second copy).
        Each request leaves by one exit: its reply, a cached reply
        replayed, or nothing for a dropped duplicate.  Re-entrant under
        deferred delivery: everything per-request lives in locals and
        the RequestContext.
        """
        request = frame.message
        cache = self.reply_cache
        verdict = slot = None
        # A request with no reply port (the null port is int 0, so
        # falsy) is a one-way send, not a transaction, and is never
        # deduplicated.
        if cache is not None and request.reply:
            verdict, slot = cache.begin(frame.src, request.reply)
            if verdict == "busy":
                return  # the first copy is still executing: drop
        if verdict == "hit":
            # Answer the retry from the cache — the handler does not run
            # again.  Egress transforms its message in place; the copy
            # leaves the cached reply pristine for further retries.
            reply = slot._evolve()  # a hit's value is the cached reply
        else:
            if self.count_requests:
                self.request_counts[request.command] += 1
            store = self.store
            wrote = None
            if store is not None:
                # Durable: this thread's log appends wait in the tail
                # block from here on, to reach the medium in one write
                # on the reply path (see _seal_reply).
                store.begin()
            try:
                if self.authorized_signatures is not None:
                    self._authenticate_sender(request)
                if request.sealed_caps or self.require_sealed:
                    request = self._unseal_request(frame, request)
                declared = self._commands.get(request.command)
                if declared is None:
                    raise BadRequest("%s does not implement opcode %d"
                                     % (self.service_name, request.command))
                handler, needs, extra = declared
                entry, extras = None, ()  # admission, before any handler
                if needs is not None:
                    if request.capability is None:
                        raise BadRequest("operation requires a capability")
                    entry = self.table.lookup(request.capability, needs)[0]
                if extra is not None:
                    extras = [self.table.lookup(capability, extra)[0]
                              for capability in request.extra_caps]
                ctx = RequestContext(self, frame, request, entry, extras)
                reply = handler(ctx)
                if reply is None:
                    reply = ctx.ok()
            except AmoebaError as exc:
                reply = RequestContext(self, frame, request).error(exc)
            except Exception as exc:
                # A crashing handler must not take the server loop down;
                # the client sees a generic server error, the bug stays
                # server-side.
                reply = RequestContext(self, frame, request).error(AmoebaError(
                    "internal error in %s: %s" % (self.service_name, exc)))
            finally:
                if store is not None:
                    wrote = store.end()
            if (reply.signature is not self._signature_port
                    or not self._plain_replies):
                reply = self._seal_reply(frame, reply, wrote, slot)
        if outbox is None:
            self.node.put_owned(reply, frame.src)
        else:
            outbox.append((reply, frame.src))

    def _seal_reply(self, frame, reply, wrote, slot):
        """Seal, sign and complete one reply; returns it ready for owned
        egress.  A reply already signed (as ``ctx.ok``/``ctx.error``
        sign) by a server with ``_plain_replies`` — no sealer, reply
        cache or store — leaves here unchanged, so :meth:`_serve_frame`
        skips the call.

        Completing is the reply tail's durable half, run before any
        reply leaves.  Order is the crash argument: commit record, then
        the transaction's block write (``log_commit`` writes the group;
        ``flush`` covers a request that logs no commit), then the reply
        cache and — back in the caller — egress.  So a reply a client
        has seen, or a retry can be replayed, is always on the medium
        together with the mutation it answers; a power failure inside
        the write raises out of here with nothing cached and nothing
        sent.

        Only requests that wrote durable state pay a commit record: an
        idempotent read or echo re-executes harmlessly after a reboot,
        so its reply needs no disk-backed dedup — the in-memory reply
        cache still suppresses duplicates within the incarnation.
        ``wrote`` is that fact, as ``DurableStore.end()`` returned it
        when the handler left its dispatch.  ``slot`` is the request's
        reply-cache slot, if it is deduplicated.
        """
        if self.sealer is not None and (reply.capability or reply.extra_caps):
            reply = self.sealer.seal_message(reply, frame.src)
        # Replies are signed: the F-box will transform this secret S into
        # the published image F(S) on the wire.  ctx.ok/ctx.error
        # pre-stamp the signature; only a hand-built handler reply needs
        # the private copy here, which is then ours to transform in place.
        if reply.signature is not self._signature_port:
            reply = reply._evolve(signature=self._signature_port)
        store = self.store
        if store is not None:
            if slot is not None and wrote:
                # Keyed exactly like the reply cache: (src, reply port).
                self.table.log_commit(frame.src, frame.message.reply,
                                      reply.pack())
            else:
                store.flush()
        if slot is not None:
            # A pristine copy: egress transforms the outgoing one in place.
            slot[0] = reply._evolve()
        return reply

    def _handle_frames(self, frames):
        """Batch delivery: one ingress run per call, one bulk unicast
        for the whole run's replies (replayed ones included)."""
        serve = self._serve_frame
        outbox = []
        for frame in frames:
            serve(frame, outbox)
        if outbox:
            self.node.put_owned_unicast_bulk(outbox)

    def _authenticate_sender(self, request):
        if request.signature not in self.authorized_signatures:
            raise SecurityError(
                "%s requires an authorized client signature" % self.service_name
            )

    def authorize_client(self, signature_image):
        """Admit a client by its published signature image F(S)."""
        if self.authorized_signatures is None:
            self.authorized_signatures = set()
        self.authorized_signatures.add(signature_image)

    def sweep(self):
        """One garbage-collection pass over the object table.

        Objects not proven live (looked up or touched) since the last
        ``default_lifetime`` sweeps are destroyed through the same
        :meth:`on_destroy` hook as an explicit STD_DESTROY.
        """
        return self.table.age(on_expire=self.on_destroy)

    def _unseal_request(self, frame, request):
        if request.sealed_caps:
            if self.sealer is None:
                raise BadRequest(
                    "%s is not configured for sealed capabilities"
                    % self.service_name
                )
            return self.sealer.unseal_message(request, frame.src)
        if self.require_sealed and (
            request.capability is not None or request.extra_caps
        ):
            refuse(Verdict.SEAL_REJECTED)
        return request

    # ------------------------------------------------------------------
    # standard operations (§2.3)
    # ------------------------------------------------------------------

    @command(stdops.STD_RESTRICT, needs=NO_RIGHTS)
    def _std_restrict(self, ctx):
        keep = Rights(ctx.request.size & 0xFF)
        return ctx.ok(capability=self.table.restrict(ctx.capability, keep))

    # REFRESH and DESTROY validate again inside the table, under the hold
    # that re-keys or removes the row: a refresh racing in since admission
    # must not let a capability it has just revoked re-key or remove it.
    @command(stdops.STD_REFRESH, needs=ADMIN)
    def _std_refresh(self, ctx):
        return ctx.ok(capability=self.table.refresh(ctx.capability, ADMIN))

    @command(stdops.STD_DESTROY, needs=ADMIN)
    def _std_destroy(self, ctx):
        self.table.destroy(ctx.capability, ADMIN)
        self.on_destroy(ctx.entry)  # only once the log has taken the destroy
        return ctx.ok()

    @command(stdops.STD_TOUCH, needs=NO_RIGHTS)
    def _std_touch(self, ctx):
        return ctx.ok()

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------

    def on_destroy(self, entry):
        """Release the resources of an object the table has just destroyed
        (STD_DESTROY) or expired (:meth:`sweep`)."""
