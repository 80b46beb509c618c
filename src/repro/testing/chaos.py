"""Deterministic chaos engine: composed faults + machine-checked invariants.

The paper's whole security argument (§2.2-§2.4) is that sparse
capabilities stay correct on an *adversarial* network.  The repo grew
the fault planes one at a time — a lossy wire (:mod:`repro.net.faults`),
a failing disk (:mod:`repro.disk.diskfaults`), replica crashes
(:mod:`repro.ipc.replica`) — but a real outage composes them: a
partition lands mid-revocation-fan-out, power fails while the network
is down, an intruder replays captured frames from the dark side of a
cut.  This module aims all of those planes at one world *at once*, over
DES virtual time, from one seed.

:class:`ScenarioRunner` builds a virtual-clock world (a replicated
capability service, or a single durable one), lets a timeline of
``at(t_virtual, name, action)`` entries cut/heal links, kill/reboot
servers, inject per-link fault bursts and replay captured traffic while
a scripted client workload runs — and records everything into an
ordered ``trace``.  Two runs with the same seed produce bit-identical
traces; the benchmark sweep (:mod:`benchmarks.bench_chaos`) asserts
that, which is the CI determinism contract every DES harness shares.

The invariant library (module functions taking a runner, returning
violation strings) is evaluated mid-run and at quiesce:

* :func:`effectively_once` — no (src, reply-port) transaction key
  executes twice on any one replica, however many retransmissions the
  faults provoked (the ReplyCache + commit-record contract);
* :func:`conservation` — every replica's counter moved exactly as many
  times as its execution log says: no phantom mutations, none lost;
* :func:`acked_implies_executed` — every client-acked mutation executed
  somewhere (acks cannot outnumber executions);
* :func:`convergence` — surviving replicas agree per object on secret
  and revocation generation (rights state), the §2.4 fan-out postcondition;
* :func:`no_phantom_authority` (factory) — a revoked capability
  validates *nowhere* once the fan-out has converged;
* :func:`no_lost_authority` (factory) — a live capability validates
  everywhere with exactly its intended rights, and a real RPC through
  it succeeds after heal.

Durability (post-reboot state ⊇ acked mutations) is checked by the
reboot action itself recording the recovered counter value; scenarios
assert ``acked <= recovered``.
"""

import random

from repro.core.rights import Rights
from repro.crypto.randomsrc import RandomSource
from repro.errors import (
    AmoebaError,
    CapabilityError,
    PartitionSuspected,
    PortNotLocated,
    RPCTimeout,
)
from repro.ipc import stdops
from repro.ipc.client import ServiceClient
from repro.ipc.locate import Locator
from repro.ipc.replica import (
    ReplicaObjectServer,
    ReplicatedObjectServer,
    ROUND_ROBIN,
)
from repro.ipc.rpc import RetryPolicy
from repro.ipc.server import command
from repro.net.faults import FaultPlan, FaultSpec
from repro.net.sched import LatencyModel
from repro.testing.world import World

__all__ = [
    "CMD_INCR",
    "CMD_GET",
    "RIGHT_READ",
    "RIGHT_WRITE",
    "ChaosCounterServer",
    "ScenarioRunner",
    "effectively_once",
    "conservation",
    "acked_implies_executed",
    "convergence",
    "no_phantom_authority",
    "no_lost_authority",
    "STANDARD_INVARIANTS",
]

#: The chaos counter's per-server rights bits (RIGHT_ADMIN = 0x80 stays
#: the refresh/destroy gate, as on every server).
RIGHT_READ = Rights(0x01)
RIGHT_WRITE = Rights(0x02)

CMD_INCR = stdops.USER_BASE + 20
CMD_GET = stdops.USER_BASE + 21


class ChaosCounterServer(ReplicaObjectServer):
    """A replicable, durable-capable counter with an execution audit.

    The minimal *non-idempotent* service: INCR must execute effectively
    once per transaction or the counter drifts — which makes the counter
    itself a tamper-evident ledger for the chaos invariants.  Every
    successful operation is appended to ``execution_log`` as
    ``(source machine, reply-port value, op)`` — the same (src, G')
    pair the ReplyCache dedups on — *after* capability validation, so
    the log records authorized executions only (the ROADMAP's audit
    trail: which capability holder drove each operation).
    """

    service_name = "chaos counter"

    def __init__(self, node, **kwargs):
        kwargs.setdefault("dedup", True)
        super().__init__(node, **kwargs)
        #: (frame.src, request.reply.value, op) per authorized execution.
        self.execution_log = []

    @command(CMD_INCR)
    def _cmd_incr(self, ctx):
        entry, _ = self.table.lookup(ctx.capability, RIGHT_WRITE)
        entry.data = entry.data + 1
        if self.store is not None:
            # Re-log the mutated payload so the WAL carries it and the
            # commit record (durable dedup) fires for this transaction.
            self.table.persist(entry.number)
        self.execution_log.append(
            (ctx.frame.src, ctx.request.reply.value, "incr")
        )
        return ctx.ok(data=b"%d" % entry.data)

    @command(CMD_GET)
    def _cmd_get(self, ctx):
        entry, _ = self.table.lookup(ctx.capability, RIGHT_READ)
        self.execution_log.append(
            (ctx.frame.src, ctx.request.reply.value, "get")
        )
        return ctx.ok(data=b"%d" % entry.data)


# ----------------------------------------------------------------------
# the scenario runner
# ----------------------------------------------------------------------


class ScenarioRunner:
    """One seeded chaos scenario over a DES world.

    Parameters
    ----------
    name:
        Scenario label (goes in the trace and the result dict).
    seed:
        The single seed: fault plan, latency jitter, client randomness,
        retry backoff and the runner's own scalar RNG all derive from
        it, so a scenario replays bit-identically.
    replicas:
        Pool size (1 builds a single unreplicated server).
    durable:
        Back the (single) server with a WAL+snapshot store on a virtual
        disk, enabling :meth:`power_fail` / :meth:`reboot_server`.
    """

    def __init__(self, name, seed, replicas=3, durable=False,
                 policy=ROUND_ROBIN, rtt_ms=2.8, jitter_ms=0.2,
                 client_timeout=1.2, drop=0.0, delay=0.0,
                 retry_attempts=3):
        self.name = name
        self.seed = seed
        self.rng = random.Random(seed)
        self.trace = []
        self.violations = []
        self.acked = 0
        self.failed = 0
        self.attempts = 0
        self.recovered_value = None
        self.acked_at_reboot = 0
        self.plan = FaultPlan(seed=seed, drop=drop, delay=delay)
        self.world = World("des", faults=self.plan, latency=LatencyModel(
            rtt_ms=rtt_ms, jitter_ms=jitter_ms, seed=seed))
        self.net = self.world.net
        self.clock = self.net.clock
        if durable and replicas != 1:
            raise ValueError("the durable scenario runs a single server")
        self.durable = durable
        self.disk = None
        if durable:
            from repro.disk.virtualdisk import VirtualDisk
            from repro.disk.wal import DefaultCodec, DurableStore

            self.disk = VirtualDisk(8192)
            server = ChaosCounterServer(
                self.world.node(),
                rng=RandomSource(seed=seed),
                store=DurableStore(self.disk, codec=DefaultCodec()),
            ).start()
            self.service = None
            self.servers = [server]
            self.put_port = server.put_port
            self.capability = server.table.create(0)
            self._signature_image = server.signature_image
            locator = None
        else:
            self.service = ReplicatedObjectServer(
                self.net,
                replicas=replicas,
                rng=RandomSource(seed=seed),
                policy=policy,
                server_cls=ChaosCounterServer,
                fanout_retry=RetryPolicy(attempts=1, rto=0.02, cap=0.1,
                                         seed=seed),
                fanout_timeout=0.25,
            ).start()
            self.servers = self.service.servers
            self.put_port = self.service.put_port
            self.capability = self.service.create(0)
            self._signature_image = self.servers[0].signature_image
        client_nic = self.world.node()
        locator = None
        if not durable:
            # The locator shares the workload client's station, so
            # partitioning the client also silences its LOCATEs.
            locator = Locator(client_nic,
                              rng=RandomSource(seed="%d-locator" % seed))
        self.client = self._make_client("client", node=client_nic,
                                        locator=locator,
                                        timeout=client_timeout,
                                        retry_attempts=retry_attempts)
        self.locator = locator
        self._captured = None
        self._continuous = []
        self._check_every = 8

    # -- stations -------------------------------------------------------

    def _make_client(self, label, node=None, locator=None, timeout=1.2,
                     retry_attempts=3):
        """A blocking client on its own station, fully seed-derived."""
        return ServiceClient(
            node if node is not None else self.world.node(),
            self.put_port,
            rng=RandomSource(seed="%d-%s" % (self.seed, label)),
            expect_signature=self._signature_image,
            locator=locator,
            timeout=timeout,
            retry=RetryPolicy(attempts=retry_attempts, rto=0.03, cap=0.25,
                              seed=self.seed),
        )

    @property
    def machines(self):
        """Server machine addresses, pool order."""
        return [s.node.address for s in self.servers]

    @property
    def client_machine(self):
        return self.client.node.address

    # -- trace ----------------------------------------------------------

    def note(self, kind, detail):
        self.trace.append((round(self.clock.now, 9), kind, detail))

    # -- timeline -------------------------------------------------------

    def at(self, t_virtual, name, action):
        """Schedule ``action()`` at virtual instant ``t_virtual``.

        Timers ride the DES event heap, so they fire in arrival order
        even while the workload is blocked inside a transaction — a cut
        lands mid-poll exactly as a real outage would.
        """

        def fire():
            self.note("action", name)
            action()
            self._run_continuous()

        self.net.loop.call_at(t_virtual, fire)
        return self

    # -- fault actions (close over the runner; use them inside at()) ----

    def sever(self, src=None, dst=None):
        self.plan.sever(src=src, dst=dst)

    def heal(self, src=None, dst=None):
        self.plan.heal(src=src, dst=dst)

    def partition_client(self, symmetric=True):
        """Cut the client's station off from every server."""
        self.plan.partition([self.client_machine], self.machines,
                            symmetric=symmetric)

    def heal_client(self):
        self.plan.heal_partition([self.client_machine], self.machines)

    def isolate_replica(self, index):
        """Cut one replica off from peers *and* clients, both directions."""
        self.plan.isolate(self.machines[index])

    def rejoin_replica(self, index):
        self.plan.rejoin(self.machines[index])

    def burst(self, src, dst=None, drop=0.0, delay=0.0, corrupt=0.0):
        """Per-link fault burst: override one link's FaultSpec."""
        key = src if dst is None else (src, dst)
        self.plan.links[key] = FaultSpec(drop=drop, delay=delay,
                                        corrupt=corrupt)

    def calm(self, src, dst=None):
        """End a :meth:`burst` on the link."""
        self.plan.links.pop(src if dst is None else (src, dst), None)

    def kill_replica(self, index):
        """Crash one replica (stays in the registry: clients discover)."""
        self.service.kill(index)

    def reconcile(self):
        """Re-drive failed revocation fan-outs (call after heal)."""
        repaired = self.service.reconcile()
        self.note("reconcile", "repaired=%d" % repaired)
        return repaired

    def refresh(self, capability=None):
        """Revoke via a control client: REFRESH on replica 0's machine.

        Runs direct (not through the workload client) so it can be
        fired from a timeline timer while the workload is mid-call."""
        control = self._make_client("control", timeout=2.0,
                                    retry_attempts=2)
        reply = control.call(
            stdops.STD_REFRESH,
            capability=capability if capability is not None
            else self.capability,
        )
        return reply.capability

    def power_fail(self, after_writes=1):
        """Durable only: power fails mid-checkpoint, ``after_writes``
        block writes into it, and the server dies.  A checkpoint that
        finishes in fewer writes is an error, not a trace line: a fault
        instant that misses leaves a scenario testing nothing."""
        from repro.disk.diskfaults import DiskFaultPlan
        from repro.errors import PowerFailure

        server = self.servers[0]
        self.acked_at_reboot = self.acked
        self.disk.faults = DiskFaultPlan(power_fail_after=after_writes)
        try:
            server.checkpoint()
        except PowerFailure:
            pass
        else:
            raise ValueError(
                "power_fail(after_writes=%d) outlived the checkpoint"
                % after_writes
            )
        server.stop()
        self.disk.faults.revive()
        self.disk.faults = None
        self.note("power_fail", "mid_checkpoint=True")

    def reboot_server(self):
        """Durable only: respawn on the same disk + get-port, recover."""
        from repro.disk.wal import DefaultCodec, DurableStore

        old = self.servers[0]
        respawn = ChaosCounterServer(
            self.world.node(),
            get_port=old.get_port,
            rng=RandomSource(seed="%d-respawn" % self.seed),
            store=DurableStore(self.disk, codec=DefaultCodec()),
        )
        report = respawn.reboot()
        respawn.start()
        self.servers[0] = respawn
        self._signature_image = respawn.signature_image
        self.client.expect_signature = respawn.signature_image
        entry = respawn.table._entry(self.capability.object)
        self.recovered_value = None if entry is None else entry.data
        # "[0]" / "[]": the text is hashed into chaos_digests.json,
        # which predates the one-chain log — keep it byte-for-byte.
        self.note(
            "reboot",
            "entries=%d suspect=%s value=%s"
            % (report.entries_restored, [0] if report.suspect else [],
               self.recovered_value),
        )
        return report

    # -- intruder capture / replay --------------------------------------

    def start_capture(self):
        """Tap the wire like an intruder: record INCR request messages."""
        captured = []

        def tap(frame):
            message = frame.message
            if message.command == CMD_INCR and message.capability is not None:
                captured.append(message)

        self.net.add_tap(tap)
        self._captured = captured
        return captured

    def replay_captured(self, limit=None):
        """Re-put captured requests from an intruder station, verbatim.

        The §2.2 threat: same capability bytes, same reply port — only
        the unforgeable source address differs.  Counted executions from
        the intruder's machine are phantom authority."""
        intruder = self.world.node()
        self.intruder_machine = intruder.address
        replayed = self._captured if limit is None else self._captured[:limit]
        targets = [s.node.address for s in self.servers if s.running]
        if not targets:
            self.note("replay", "frames=0 (no live replicas)")
            return 0
        for i, message in enumerate(list(replayed)):
            self.net.send(intruder, message,
                          dst_machine=targets[i % len(targets)])
        self.note("replay", "frames=%d" % len(replayed))
        return len(replayed)

    def intruder_executions(self):
        machine = getattr(self, "intruder_machine", None)
        if machine is None:
            return 0
        return sum(
            1 for server in self.servers
            for (src, _value, _op) in server.execution_log
            if src == machine
        )

    # -- workload -------------------------------------------------------

    def incr(self, capability=None):
        """One INCR through the workload client; failures are survivable
        scenario events, not errors."""
        self.attempts += 1
        try:
            reply = self.client.call(
                CMD_INCR,
                capability=capability if capability is not None
                else self.capability,
            )
        except (RPCTimeout, PortNotLocated, CapabilityError,
                AmoebaError) as exc:
            self.failed += 1
            self.note("fail", type(exc).__name__)
            return None
        self.acked += 1
        self.note("ack", "incr=%s" % reply.data.decode("ascii"))
        return int(reply.data)

    def run_ops(self, n, capability=None, spacing=0.0):
        """The serial increment storm; continuous checks every K acks.

        ``spacing`` burns that many virtual seconds between ops, which
        is how a workload is stretched *across* the timeline's cuts and
        heals instead of finishing before the first one fires."""
        for i in range(n):
            self.incr(capability)
            if spacing:
                self.sleep(spacing)
            if self._continuous and (i + 1) % self._check_every == 0:
                self._run_continuous()
        return self

    def sleep(self, dt):
        """Let ``dt`` virtual seconds pass: deliver (and fire) every
        event and timer due in the window, then advance the clock."""
        deadline = self.clock.now + dt
        self.net.loop.pump(until=deadline)
        self.clock.advance_to(deadline)
        return self

    def quiesce(self):
        """Drain every in-flight frame and pending timer."""
        self.net.loop.run()
        self.note("quiesce", "pending=0")
        return self

    # -- invariants -----------------------------------------------------

    def continuously(self, *checkers):
        """Also evaluate these checkers after every timeline action and
        every ``_check_every`` acks, not just at quiesce."""
        self._continuous.extend(checkers)
        return self

    def _run_continuous(self):
        for checker in self._continuous:
            self._record(checker)

    def _record(self, checker):
        found = checker(self)
        for violation in found:
            if violation not in self.violations:
                self.violations.append(violation)
                self.note("violation", violation)

    def check(self, *checkers):
        """Evaluate invariant checkers now; violations accumulate."""
        for checker in checkers:
            self._record(checker)
        return self

    def result(self):
        """The scenario verdict — deterministic, JSON-shaped."""
        faults = self.plan.stats()
        # chaos_digests.json hashes this dict whole and predates the
        # count of frames that will not pack — a harness bug, so the key
        # appears only when it happened (and then fails the digest).
        if not faults["corrupt_unpackable"]:
            del faults["corrupt_unpackable"]
        return {
            "name": self.name,
            "seed": self.seed,
            "attempts": self.attempts,
            "acked": self.acked,
            "failed": self.failed,
            "violations": list(self.violations),
            "trace": [list(entry) for entry in self.trace],
            "virtual_seconds": round(self.clock.now, 9),
            "faults": faults,
        }


# ----------------------------------------------------------------------
# the invariant library
# ----------------------------------------------------------------------


def _live_servers(runner):
    return [s for s in runner.servers if s.running]


def effectively_once(runner):
    """No transaction key executes twice on any one replica.

    The key is (source machine, reply put-port value) — what the
    ReplyCache dedups on and what commit records re-seed across a
    reboot.  A duplicate means a retransmission re-executed."""
    violations = []
    for i, server in enumerate(runner.servers):
        seen = set()
        for src, value, op in server.execution_log:
            key = (src, value)
            if key in seen:
                violations.append(
                    "effectively_once: replica %d re-executed %s for "
                    "src=%s reply=%d" % (i, op, src, value)
                )
            seen.add(key)
    return violations


def conservation(runner):
    """Each replica's counter moved exactly once per logged INCR —
    mutations are conserved: none invented, none lost."""
    violations = []
    number = runner.capability.object
    for i, server in enumerate(runner.servers):
        if not server.running:
            continue
        entry = server.table._entry(number)
        if entry is None:
            continue  # destroyed/re-keyed object: nothing to conserve
        executed = sum(
            1 for (_src, _value, op) in server.execution_log if op == "incr"
        )
        base = 0 if not runner.durable else (
            # A rebooted incarnation starts from the recovered value;
            # only executions logged by *this* incarnation moved it.
            entry.data - executed
        )
        if not runner.durable and entry.data - executed != 0:
            violations.append(
                "conservation: replica %d counter=%d but %d executions"
                % (i, entry.data, executed)
            )
        elif runner.durable and base < 0:
            violations.append(
                "conservation: durable counter=%d under %d executions"
                % (entry.data, executed)
            )
    return violations


def acked_implies_executed(runner):
    """Every acked INCR executed somewhere (acks never exceed
    executions; with retries, executions may exceed acks)."""
    executed = sum(
        1 for server in runner.servers
        for (_src, _value, op) in server.execution_log if op == "incr"
    )
    if runner.acked > executed:
        return [
            "acked_implies_executed: %d acks but only %d executions"
            % (runner.acked, executed)
        ]
    return []


def convergence(runner):
    """Surviving replicas agree per object on (secret, generation) —
    rights/revocation state, the fan-out postcondition.  Payload data is
    the service's own consistency problem (as in Amoeba) and is audited
    by :func:`conservation` instead."""
    live = _live_servers(runner)
    if len(live) < 2:
        return []
    reference = {
        number: (secret, generation)
        for number, secret, _data, generation in live[0].table.snapshot_entries()
    }
    violations = []
    for server in live[1:]:
        other = {
            number: (secret, generation)
            for number, secret, _data, generation
            in server.table.snapshot_entries()
        }
        if other != reference:
            drift = sorted(
                set(reference.items()) ^ set(other.items()),
                key=lambda item: item[0],
            )
            violations.append(
                "convergence: generation/secret state diverges on objects %s"
                % sorted({number for number, _state in drift})
            )
    return violations


def no_phantom_authority(capability):
    """Checker factory: ``capability`` (revoked/stale) must validate on
    no surviving replica."""

    def checker(runner):
        violations = []
        for i, server in enumerate(runner.servers):
            if not server.running:
                continue
            try:
                server.table.lookup(capability)
            except AmoebaError:
                continue
            violations.append(
                "no_phantom_authority: revoked capability for object %d "
                "still validates on replica %d" % (capability.object, i)
            )
        return violations

    return checker


def no_lost_authority(capability, rights=None):
    """Checker factory: ``capability`` must validate on every surviving
    replica, with exactly ``rights`` when given."""

    def checker(runner):
        violations = []
        for i, server in enumerate(runner.servers):
            if not server.running:
                continue
            try:
                _entry, effective = server.table.lookup(capability)
            except AmoebaError as exc:
                violations.append(
                    "no_lost_authority: live capability for object %d "
                    "rejected on replica %d (%s)"
                    % (capability.object, i, type(exc).__name__)
                )
                continue
            if rights is not None and int(effective) != int(rights):
                violations.append(
                    "no_lost_authority: object %d rights 0x%02x != "
                    "intended 0x%02x on replica %d"
                    % (capability.object, int(effective), int(rights), i)
                )
        return violations

    return checker


def no_intruder_executions(runner):
    """After revocation converged, replayed frames executed nothing."""
    count = runner.intruder_executions()
    if count:
        return [
            "no_intruder_executions: %d operations executed from the "
            "intruder's machine" % count
        ]
    return []


def durability(runner):
    """Post-reboot state covers every acked mutation: the recovered
    counter is at least the acked count at reboot (and never exceeds
    total attempts)."""
    if runner.recovered_value is None:
        return []
    violations = []
    if runner.recovered_value < runner.acked_at_reboot:
        violations.append(
            "durability: recovered counter %d < %d acked increments"
            % (runner.recovered_value, runner.acked_at_reboot)
        )
    if runner.recovered_value > runner.attempts:
        violations.append(
            "durability: recovered counter %d exceeds %d attempts"
            % (runner.recovered_value, runner.attempts)
        )
    return violations


#: The suite every scenario can run at quiesce; capability-specific
#: checkers (no_phantom/no_lost/durability) are added per scenario.
STANDARD_INVARIANTS = (
    effectively_once,
    conservation,
    acked_implies_executed,
    convergence,
)
