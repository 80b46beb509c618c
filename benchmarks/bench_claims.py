"""The paper's own figures and claims: one counted, asserted row each.

``CLAIMS`` is ROADMAP item 3's closed table: paper section, the claim as
one sentence (the row function's docstring) and a ``run(**size)`` that
returns ``{count: (observed, what the claim needs)}`` over seeded wires;
``check`` fails every pair that differs.  It is this family's ``ARMS``.
No row times anything (docs/PERFORMANCE.md "Removed (PR 24)" names the
suite metric for each figure that used to be printed here).  Each runs
under ``sys.setprofile`` and ``EXECUTED`` keeps the modules of
``src/repro`` it called into: the table read backwards is the module
ledger of ``tests/test_claims.py`` and of ``docs/PAPER_MAP.md``.
"""

import collections
import importlib
import inspect
import os
import pkgutil
import sys

import repro
from repro import (
    ALL_RIGHTS, AmoebaError, BankClient, BankServer, BlockClient, BlockServer,
    Capability, ChargingFlatFileServer, DirectoryClient, DirectoryServer,
    FlatFileClient, FlatFileServer, Intruder, InvalidCapability, Locator,
    Machine, Message, MultiversionClient, MultiversionFileServer, Nic,
    ObjectTable, PermissionDenied, Port, PrivatePort, Rights, SimNetwork,
    UnixFs, scheme_by_name,
)
from repro.core.schemes import all_scheme_names
from repro.crypto import RandomSource, generate_keypair
from repro.crypto.commutative import CommutativeOneWayFamily
from repro.disk import VirtualDisk
from repro.errors import BadRequest, SecurityError
from repro.ipc import install_locate_responder
from repro.ipc.server import ObjectServer
from repro.servers import ReachabilitySweeper
from repro.servers.flatfile import (
    FILE_CREATE, FILE_READ, FILE_WRITE, MAX_TRANSFER,
)
from repro.softprot import (
    BootProtocol, CapabilitySealer, ClientCapabilityCache, KeyMatrix,
    LinkCryptNode, ServerCapabilityCache,
)
from repro.softprot.boot import establish_matrix_keys

SECRET = b"top secret payload"
READ = Rights(0x01)  # the read right, on every server used here
#: A capability for no server in particular (codec, sealing, the tap).
LOOSE = Capability(port=Port(0xAABBCCDDEEFF), object=0x123456,
                   rights=Rights(0x5A), check=b"\xc3\x5a\x99\x17\xee\x42")


def rng(seed):
    return RandomSource(seed=seed)


def _cast(scheme="xor-oneway", signed=True):
    """Fig. 1 on one wire: a file server, a client that checks its
    signature and holds a capability, an intruder tapping everything."""
    net = SimNetwork()
    server = FlatFileServer(Nic(net), rng=rng(1),
                            scheme=scheme_by_name(scheme)).start()
    client = FlatFileClient(
        Nic(net), server.put_port, rng=rng(2),
        expect_signature=server.signature_image if signed else None)
    cap = client.create(SECRET)
    intruder = Intruder(net, rng=rng(3))
    intruder.start_capture()
    return net, server, client, intruder, cap


def _served(read, *args, want=SECRET):
    """1 if ``read(*args)`` gives ``want``; 0 if anything else, or refused."""
    try:
        return int(read(*args) == want)
    except AmoebaError:
        return 0


def _refused(error, operation, *args, **kwargs):
    try:
        operation(*args, **kwargs)
    except error:
        return 1
    return 0


def _frames(net, operation, *args):  # (frames on the wire, the result)
    net.reset_stats()
    value = operation(*args)
    return net.frames_sent, value


def intruder_present(n=200):
    """GET on a stolen put-port listens on F(P) and receives nothing."""
    _, server, client, intruder, cap = _cast()
    intruder.attempt_get(server.put_port)
    return {"completed": (sum(_served(client.read, cap) for _ in range(n)), n),
            "intercepted": (intruder.intercepted_count(server.put_port), 0),
            "frames_tapped": (len(intruder.captured), 2 * n)}


def impersonation_campaign(rounds=50):
    """GET(P) before every transaction still never impersonates the server."""
    _, server, client, intruder, cap = _cast()
    completed = 0
    for _ in range(rounds):
        intruder.attempt_get(server.put_port)
        completed += _served(client.read, cap)
    return {"completed": (completed, rounds),
            "intercepted": (intruder.intercepted_count(server.put_port), 0)}


def forged_replies(n=100, signed=True):
    """A forged reply that arrives first is discarded: it lacks F(S)."""
    net, _, client, intruder, cap = _cast(signed=signed)
    net.add_tap(lambda frame: frame.message.is_reply
                or intruder.forge_reply(frame, data=b"FORGED"))
    replies = [client.read(cap) for _ in range(n)]
    return {"forged_accepted": (replies.count(b"FORGED"), 0),
            "genuine_accepted": (replies.count(SECRET), n),
            "frames_tapped": (len(intruder.captured), 3 * n)}


def stolen_then_revoked():
    """A stolen capability works until its owner refreshes it, then is dead."""
    _, server, client, intruder, cap = _cast()
    client.read(cap)
    request = intruder.captured_requests()[0]
    reply_private, _ = intruder.steal_capability(request)
    hijacked = intruder.nic.poll(reply_private).message.data
    client.refresh(cap)
    thief = FlatFileClient(intruder.nic, server.put_port, rng=rng(9))
    stolen = request.message.capability
    return {"thief_served_before_refresh": (int(hijacked == SECRET), 1),
            "thief_served_after_refresh": (_served(thief.read, stolen), 0)}


def replayed_request():
    """A replayed request executes again, but its reply port is one-wayed
    twice: the reply reaches no station, the intruder included."""
    net, server, client, intruder, cap = _cast()
    client.read(cap)
    request = intruder.captured_requests()[0]
    executed = server.request_counts[FILE_READ]
    net.reset_stats()
    intruder.replay(request)
    replayed = intruder.captured_requests()[-1].message
    return {"replay_executed": (server.request_counts[FILE_READ] - executed,
                                1),
            "reply_port_one_wayed_again": (
                replayed.reply == intruder.nic.fbox.one_way(
                    request.message.reply), True),
            "replies_received": (net.frames_delivered, 1),  # the request
            "replies_dropped": (net.frames_dropped, 1)}


def fig2_layout(guesses=100_000):
    """A capability is 48+24+8+48 bits; its check field is not guessable."""
    draw = rng(4)
    table = ObjectTable(scheme_by_name("xor-oneway"), Port(1), rng=draw)
    target = table.create("guess me")
    return {"packed_bits": (len(LOOSE.pack()) * 8, 128),
            "round_trips": (Capability.unpack(LOOSE.pack()) == LOOSE, True),
            "guesses_refused": (
                sum(_refused(InvalidCapability, table.lookup,
                             target.with_check(draw.bytes(6)))
                    for _ in range(guesses)), guesses)}


def scheme_tampers():
    """Schemes 1-3 reject every altered rights field; the simple one none."""
    out = {}
    for name in all_scheme_names():
        scheme = scheme_by_name(name)
        secret = scheme.new_secret(rng(5))
        rights, check = scheme.mint(secret, ALL_RIGHTS)
        out[name + "_tampers_rejected"] = (
            sum(scheme.verify(secret, Rights(int(rights) ^ flip), check)
                is None for flip in range(1, 256)), 255 * (name != "simple"))
    return out


def server_restrict():
    """Schemes 1-2 restrict through the server, two frames; simple cannot."""
    out = {}
    for name, cost in (("simple", "unsupported"), ("encrypted", 2),
                       ("xor-oneway", 2)):
        net, _, client, _, cap = _cast(name)
        try:
            frames, weaker = _frames(net, client.restrict, cap, READ)
        except AmoebaError:
            frames, weaker = "unsupported", None
        out[name + "_frames"] = (frames, cost)
        out[name + "_weaker_served"] = (
            _served(client.read, weaker), int(cost == 2))
    return out


def client_restrict():
    """The commutative scheme restricts client-side, at zero frames."""
    net, server, client, _, cap = _cast("commutative")
    frames, weaker = _frames(net, server.scheme.client_restrict, cap, READ)
    return {"frames": (frames, 0),
            "weaker_served": (_served(client.read, weaker), 1)}


class _CountedFamily(CommutativeOneWayFamily):
    applied = 0  # verifications: one F-chain per rights combination

    def apply_many(self, indices, x):
        self.applied += 1
        return super().apply_many(indices, x)


def rights_by_brute_force(rights=(0x00, 0x5A, 0xFF)):
    """Without the plaintext rights field the server could still find the
    rights by trying all 2^8 combinations; the field makes it one try."""
    scheme = scheme_by_name("commutative", family=_CountedFamily())
    secret = scheme.new_secret(rng(5))
    recovered, tries = 0, []
    for bits in rights:
        field, check = scheme.mint(secret, Rights(bits))
        before = scheme.family.applied
        recovered += scheme.recover_rights(secret, check) == field
        tries.append(scheme.family.applied - before)
    before = scheme.family.applied
    scheme.verify(secret, field, check)
    return {"recovered_without_field": (recovered, len(rights)),
            "most_tries_without_field": (max(tries), 256),
            "tries_with_field": (scheme.family.applied - before, 1)}


def exact_copy():
    """An exact copy is the bit pattern: no server involved, any scheme."""
    total = served = 0
    for name in all_scheme_names():
        net, _, client, _, cap = _cast(name)
        frames, copy = _frames(net, Capability.unpack, cap.pack())
        total += frames
        served += _served(client.read, copy)
    return {"frames": (total, 0), "copies_served": (served, 4)}


def revocation(outstanding=(1, 100, 10_000)):
    """One refresh kills every outstanding copy; the table holds one row."""
    out = {}
    for copies in outstanding:
        table = ObjectTable(scheme_by_name("xor-oneway"), Port(1), rng=rng(6))
        owner = table.create("asset")
        held = [table.restrict(owner, READ) for _ in range(copies)]
        table.refresh(owner)
        dead = sum(_refused(InvalidCapability, table.lookup, c) for c in held)
        out["killed_of_%d_outstanding" % copies] = (dead, copies)
        out["table_rows_for_%d_outstanding" % copies] = (len(table), 1)
    return out


def matrix_replay_and_cache(sources=200):
    """A sealed capability validates from one source; a warm seal is free."""
    matrix = KeyMatrix(rng=rng(7))
    client = CapabilitySealer(matrix.view(1),
                              client_cache=ClientCapabilityCache())
    server = CapabilitySealer(matrix.view(2))
    sealed = client.seal(LOOSE, 2)
    cold = client.cipher_ops
    client.seal(LOOSE, 2)
    validated = [_served(server.unseal, sealed, src, want=LOOSE)
                 for src in range(1, 3 + sources)]  # src 2 is the server
    return {"right_source_validates": (validated[0], 1),
            "wrong_source_replays_validated": (sum(validated[2:]), 0),
            "cold_seal_cipher_ops": (cold, 1),
            "warm_seal_cipher_ops": (client.cipher_ops - cold, 0)}


def boot_handshake(replays=20):
    """The public-key boot agrees fresh keys; replays and impostors fail."""
    draw = rng(8)
    keys, impostor = (generate_keypair(bits=512, rng=draw) for _ in range(2))
    offer, forward = BootProtocol.client_offer(keys.public, draw)
    reply, _, reverse_at_server = BootProtocol.server_accept(keys, offer, draw)
    reverse = BootProtocol.client_confirm(keys.public, forward, reply)

    def refused(answer_to):  # a later boot's offer, and what comes back
        fresh = BootProtocol.client_offer(keys.public, draw)[1]
        return _refused(AmoebaError, BootProtocol.client_confirm,
                        keys.public, fresh, answer_to(fresh))

    return {"keys_agree": (reverse == reverse_at_server, True),
            "old_boot_replays_refused": (
                sum(refused(lambda fresh: reply) for _ in range(replays)),
                replays),
            "impostor_refused": (refused(
                lambda fresh: BootProtocol.server_accept(impostor, (
                    impostor.public.encrypt(fresh, rng=draw)), draw)[0]), 1)}


def sealed_service():
    """A booted server announces its key, the key exchange fills the
    matrix, and it serves only sealed capabilities, from their own
    machine, to admitted clients; a refresh drops the cached triples."""
    net = SimNetwork()
    vault, user = (Machine(net, rng=rng(seed)) for seed in (70, 71))
    at, keys = (vault.nic.address, user.nic.address), (
        generate_keypair(bits=512, rng=rng(72)))
    views = [KeyMatrix(rng=rng(73 + i)).view(at[i]) for i in (0, 1)]
    sealer = CapabilitySealer(views[0], server_cache=ServerCapabilityCache())
    files = FlatFileServer(vault.nic, sealer=sealer, require_sealed=True,
                           rng=rng(75)).start()
    vault.announce("vault", files.put_port, keys.public)
    heard = user.heard_announcements["vault"]
    establish_matrix_keys(views[1], views[0], keys, rng(76))
    intruder = Intruder(net, rng=rng(77))
    intruder.start_capture()
    signature = PrivatePort.generate(rng(78))

    def client(seed, sealed=True, **kwargs):
        return FlatFileClient(user.nic, files.put_port, rng=rng(seed),
                              locator=user.locator, sealer=CapabilitySealer(
                                  views[1], client_cache=(
                                      ClientCapabilityCache())) if sealed
                              else None, **kwargs)

    owner = client(79, signature=signature)
    cap = owner.create(SECRET)
    out = {"announced_key_heard": (heard.public_key == keys.public, True),
           "matrix_keys_agree": (all(
               views[0].key(*pair) == views[1].key(*pair)
               for pair in (at, at[::-1])), True),
           "sealed_read_served": (_served(owner.read, cap), 1),
           "plaintext_refused": (_refused(
               InvalidCapability, client(80, sealed=False).read, cap), 1)}
    request = [f for f in intruder.captured_requests()
               if f.message.sealed_caps][-1]
    reply_port, _ = intruder.steal_capability(request)
    answer = intruder.nic.poll(reply_port)
    out["replay_from_another_machine_served"] = (
        int(answer is not None and answer.message.status == 0), 0)
    files.authorize_client(signature.public)
    out["admitted_client_served"] = (_served(owner.read, cap), 1)
    out["unadmitted_client_refused"] = (
        _refused(SecurityError, client(81).read, cap), 1)
    owner.refresh(cap)
    out["server_triples_dropped_by_refresh"] = (
        sealer.server_cache.forgotten, 1)
    return out


def link_encrypted_tap():
    """On a link-encrypted line a wiretap sees no capability bytes."""
    net = SimNetwork()
    a, b = (LinkCryptNode(Nic(net), rng=rng(seed)) for seed in (6, 7))
    key = rng(8).bytes(16)
    a.add_line(b.nic.address, b.endpoint[1], key)
    b.add_line(a.nic.address, a.endpoint[1], key)
    get = PrivatePort.generate(rng(9))
    wire = b.nic.listen(get)
    tapped = []
    net.add_tap(lambda frame: tapped.append(frame.message.pack()))
    a.put(Message(dest=wire, capability=LOOSE, data=SECRET), b.nic.address)
    got = b.nic.poll(get).message
    return {"delivered_intact": (
                (got.capability, got.data) == (LOOSE, SECRET), True),
            "frames_tapped": (len(tapped), 1),
            "tapped_frames_showing_capability_bytes": (
                sum(LOOSE.check in raw or SECRET in raw for raw in tapped), 0)}


def locate_frames(lookups=1000):
    """A port is located by one broadcast and its answer, then from cache."""
    net, server, client, _, _ = _cast()
    install_locate_responder(server.node)
    locator = Locator(client.node, rng=rng(31))
    cold, _ = _frames(net, locator.locate, server.put_port)
    warm, _ = _frames(net, lambda: [locator.locate(server.put_port)
                                    for _ in range(lookups)])
    return {"cold_locate_frames": (cold, 2), "cached_locate_frames": (warm, 0)}


def process_lifecycle():
    """A parent builds its child on any machine; its capability controls it."""
    net = SimNetwork()
    parent, big = (Machine(net, rng=rng(seed)) for seed in (40, 41))
    remote = parent.memory_client(remote_port=big.memory_port)
    segments = [remote.create_segment(4096, initial=b"; program text"),
                remote.create_segment(2048, initial=b"initialised globals"),
                remote.create_segment(8192)]
    child = remote.make_process("worker", segments)
    states = [remote.start(child), remote.stop(child), remote.start(child)]
    observer = remote.restrict(child, READ)
    out = {"objects_on_remote_machine": (len(big.memory_server.table), 4),
           "objects_on_parent_machine": (len(parent.memory_server.table), 0),
           "states": (states, ["running", "stopped", "running"]),
           "observer_controls_refused": (
               sum(_refused(PermissionDenied, step, observer)
                   for step in (remote.start, remote.stop)), 2)}
    data = segments[1]
    remote.write(data, 12, b"rewritten")
    out["segment_read_back"] = (remote.read(data, 0, 21).decode(),
                                "initialised rewritten")
    out["segment_size"] = (remote.segment_size(data), 2048)
    out["observer_reads_info"] = (remote.process_info(observer),
                                  "worker state=running segments=3 runs=2")
    process = big.memory_server.table._entry(child.object).data
    remote.destroy(child)
    out["destroyed_process_state"] = (process.state.value, "dead")
    out["objects_left_on_remote_machine"] = (len(big.memory_server.table), 3)
    return out


def modular_file_stack():
    """A file server on the block server pays that server's frames on top
    of its own two, and gives the blocks back; a new version of a file
    copies no page, and the old version still reads its own bytes."""
    net = SimNetwork()
    server_nic, files_nic, ws = Nic(net), Nic(net), Nic(net)
    blocks = BlockServer(server_nic, disk=VirtualDisk(n_blocks=1 << 14),
                         rng=rng(12)).start()
    out = {}
    for label, backend in (("in_memory", None), ("on_blocks", BlockClient(
            files_nic, blocks.put_port, rng=rng(16)))):
        files = FlatFileServer(files_nic, block_client=backend, rng=rng(17))
        fclient = FlatFileClient(ws, files.start().put_port, rng=rng(15))
        cap = fclient.create()
        asked = sum(blocks.request_counts.values())
        frames, _ = _frames(net, fclient.write, cap, 0, b"f" * 8192)
        asked = sum(blocks.request_counts.values()) - asked
        out[label + "_8k_write_block_asks"] = (asked, 32 if backend else 0)
        out[label + "_8k_write_frames"] = (frames, 2 + 2 * asked)
    on_blocks = fclient, cap
    mv = MultiversionFileServer(server_nic, rng=rng(22),
                                disk=VirtualDisk(n_blocks=1 << 14)).start()
    mvc = MultiversionClient(ws, mv.put_port, rng=rng(23))
    doc = mvc.create_file()
    version, _ = mvc.new_version(doc)
    mvc.write(version, 0, b"p" * (32 * 512))
    mvc.commit(version)
    written = mv.disk.writes
    frames, (branch, _) = _frames(net, mvc.new_version, doc)
    out["branch_32_pages_frames"] = (frames, 2)
    out["branch_32_pages_copied"] = (mv.disk.writes - written, 0)
    fclient, cap = on_blocks
    out["on_blocks_8k_read_back"] = (
        fclient.read(cap, 0, 8192) == b"f" * 8192, True)
    fclient.destroy(cap)
    out["on_blocks_blocks_left"] = (blocks.disk.used_blocks, 0)
    mvc.write(branch, 0, b"q" * 512)
    mvc.commit(branch)
    aborted, _ = mvc.new_version(doc)
    mvc.abort(aborted)
    out["old_version_reads_p"] = (mvc.read(version, 0, 512) == b"p" * 512,
                                  True)
    out["version_1_reads_p"] = (
        mvc.read_version(doc, 1, 0, 512) == b"p" * 512, True)
    out["newest_reads_q"] = (mvc.read(doc, 0, 512) == b"q" * 512, True)
    out["versions_after_an_abort"] = (mvc.n_versions(doc), 3)
    mvc.destroy(doc)
    out["pages_left_after_destroy"] = (mv.disk.used_blocks, 0)
    return out


def _storage(net, seed):
    """A directory and a file server, a client of each, the root directory."""
    storage, ws = Nic(net), Nic(net)
    dirs = DirectoryServer(storage, rng=rng(seed)).start()
    files = FlatFileServer(storage, rng=rng(seed + 1)).start()
    return (ws, dirs, files, dirs.create_root(),
            DirectoryClient(ws, dirs.put_port, rng=rng(seed + 2)),
            FlatFileClient(ws, files.put_port, rng=rng(seed + 3)))


def touch_and_age(lifetime=3, cycles=4):
    """Touching what the roots reach and aging collects the unreachable."""
    ws, dirs, files, root, dclient, fclient = _storage(SimNetwork(), 50)
    dirs.table.default_lifetime = files.table.default_lifetime = lifetime
    project = dclient.create_directory(root, "project")
    dclient.enter(project, "report.txt", fclient.create(b"quarterly report"))
    orphan = fclient.create(b"capability lost in a crashed process")
    unlinked = fclient.create(b"entry removed, object forgotten")
    dclient.enter(project, "tmp", unlinked)
    dclient.remove(project, "tmp")
    sweeper = ReachabilitySweeper(ws, [root], rng=rng(54))
    collected = sum(sweeper.collect([dirs, files])[1] for _ in range(cycles))
    return {"reachable_touched": (sweeper.touched, 3),
            "collected": (collected, 2),
            "unreachable_gone": (
                sum(_refused(AmoebaError, fclient.read, cap)
                    for cap in (orphan, unlinked)), 2),
            "objects_left": (len(dirs.table) + len(files.table), 3)}


def unix_facade():
    """The UNIX file system — open, seek, read, stat, close — is a library
    over directory and file servers."""
    net = SimNetwork()
    ws, dirs, files, root, _, _ = _storage(net, 60)
    fs = UnixFs(ws, root, files.put_port, rng=rng(64))
    asked = collections.Counter()
    net.add_tap(lambda frame: frame.message.is_reply
                or asked.update([frame.message.dest]))
    fs.mkdir("home")
    fd = fs.open("home/notes.txt", "a")
    fs.write(fd, b"the kernel knows nothing about any of this\n")
    out = {"listing": (fs.listdir("home"), ["notes.txt"])}
    fs.unlink("home/notes.txt")
    out["listing_after_unlink"] = (fs.listdir("home"), [])
    del asked[dirs.put_port], asked[files.put_port]
    out["requests_to_anything_else"] = (sum(asked.values()), 0)
    text = b"0123456789 sparse capabilities"
    fd = fs.open("home/log.txt", "w")
    fs.write(fd, text)
    fs.lseek(fd, 4, os.SEEK_SET)
    out["read_after_seek_set"] = (fs.read(fd, 6).decode(), "456789")
    end = fs.lseek(fd, 0, os.SEEK_END)
    out["seek_end_position"] = (end, len(text))
    fs.lseek(fd, end - 12)
    out["read_to_end"] = (fs.read(fd, 100).decode(), "capabilities")
    out["stat_size"] = (fs.stat("home/log.txt")["size"], len(text))
    fs.close(fd)
    out["closed_fd_refused"] = (_refused(BadRequest, fs.read, fd, 1), 1)
    out["requests_to_anything_else_after_reads"] = (
        sum(n for port, n in asked.items()
            if port not in (dirs.put_port, files.put_port)), 0)
    return out


def bank_economy(transfers=200, unit=512):
    """Money is conserved, dollars are the quota, a refusal costs nothing,
    and returned blocks return the money — once the bank is up to take it.
    Currencies convert at the bank's rate; only the mint right mints."""
    net = SimNetwork()
    storage, ws = Nic(net), Nic(net)
    bank = BankServer(Nic(net), exchange_rates={("USD", "DM"): (9, 4)},
                      rng=rng(24)).start()
    bclient = BankClient(ws, bank.put_port, rng=rng(25))
    central = bank.create_account({"USD": 10_000}, mint_right=True)
    alice = bclient.open_account()
    bclient.transfer(central, alice, "USD", 20)
    for _ in range(transfers):
        bclient.transfer(central, alice, "USD", 1)
        bclient.transfer(alice, central, "USD", 1)
    charging = ChargingFlatFileServer(
        storage, BankClient(storage, bank.put_port, rng=rng(26)),
        bank.create_account(), charge_unit=unit, rng=rng(27)).start()
    fclient = FlatFileClient(ws, charging.put_port, rng=rng(28))
    cap = fclient.call(FILE_CREATE, extra_caps=(alice,)).capability

    def balance(account):
        return bclient.balance(account).get("USD", 0)

    def refused(offset, size, payer=alice):
        return _refused(AmoebaError, fclient.call, FILE_WRITE, capability=cap,
                        offset=offset, data=b"x" * size, extra_caps=(payer,))

    bought = 0
    while not refused(bought, unit):  # buy until the money runs out
        bought += unit
    # Broke at a unit boundary, alice is refused any growth by the bank;
    # central could pay for anything, so only the size check refuses it.
    refusals = moved = 0
    sizes = (0, 1, unit - 1, unit, unit + 1, MAX_TRANSFER, MAX_TRANSFER + 1)
    for size, payer in [(s, alice) for s in sizes] + [(sizes[-1], central)]:
        before = balance(payer)
        if refused(bought, size, payer):
            refusals += 1
            moved += balance(payer) != before
    bank.stop()  # the blocks come back while the bank is down
    fclient.destroy(cap)
    charging.sweep()
    owed = len(charging.refunds_owed)
    bank.start()
    charging.sweep()
    charging.sweep()  # pays nothing: the debt left with the first payment
    out = {"bytes_bought_with_20_usd": (bought, 19 * unit),
           "boundary_writes_refused": (refusals, 7),
           "refused_writes_that_moved_money": (moved, 0),
           "refunds_owed_while_bank_down": (owed, 1),
           "refunds_paid_by_sweeps": (charging.refunds_paid, 1),
           "usd_refunded": (balance(alice), 20),
           "usd_in_circulation": (bank.total_in_circulation("USD"),
                                  bank.minted["USD"])}
    out["dm_for_100_usd_at_9_to_4"] = (
        bclient.convert(central, "USD", "DM", 100), 225)
    out["mint_without_the_right_refused"] = (
        _refused(PermissionDenied, bclient.mint, alice, "USD", 1000), 1)
    bclient.mint(central, "DM", 1000)
    out["dm_in_circulation"] = (bank.total_in_circulation("DM"), 1225)
    return out


Claim = collections.namedtuple("Claim", "name section claim run check smoke")
#: row name -> the modules (paths under ``src/repro``) its last run called.
EXECUTED = {}
_SRC = os.path.join(os.path.dirname(os.path.abspath(repro.__file__)), "")


def _row(run, section, **smoke):
    name = "claim_" + run.__name__
    claim = " ".join(run.__doc__.split())

    def traced(**size):
        codes, previous = set(), sys.getprofile()
        sys.setprofile(lambda frame, event, arg: codes.add(frame.f_code))
        try:
            return run(**size)
        finally:
            sys.setprofile(previous)
            # Functions only: a module or class body is a first import.
            EXECUTED[name] = sorted({
                code.co_filename[len(_SRC):] for code in codes
                if code.co_flags & inspect.CO_OPTIMIZED
                and code.co_filename.startswith(_SRC)})

    def check(result):
        return ["%s is %r, not %r — %s (%s)" % (key, got, want, claim, section)
                for key, (got, want) in result.items() if got != want]

    return Claim(name, section, claim, traced, check, smoke)


CLAIMS = (
    _row(intruder_present, "Fig. 1, §2.2", n=50),
    _row(impersonation_campaign, "Fig. 1, §2.2", rounds=10),
    _row(forged_replies, "Fig. 1, §2.2", n=25),
    _row(stolen_then_revoked, "Fig. 1, §2.3"),
    _row(replayed_request, "Fig. 1, §2.2"),
    _row(fig2_layout, "Fig. 2, §2.2", guesses=5_000),
    _row(scheme_tampers, "§2.3"),
    _row(server_restrict, "§2.3"),
    _row(client_restrict, "§2.3"),
    _row(rights_by_brute_force, "§2.3"),
    _row(exact_copy, "§2.3"),
    _row(revocation, "§2.3", outstanding=(1, 100, 1_000)),
    _row(matrix_replay_and_cache, "§2.4", sources=50),
    _row(boot_handshake, "§2.4", replays=5),
    _row(sealed_service, "§2.2, §2.4"),
    _row(link_encrypted_tap, "§2.4"),
    _row(locate_frames, "§2.2", lookups=100),
    _row(process_lifecycle, "§3.1"),
    _row(modular_file_stack, "§3.2-§3.5"),
    _row(touch_and_age, "§3"),
    _row(unix_facade, "§3.5"),
    _row(bank_economy, "§3.6", transfers=20),
)

#: name -> (workload, check(result) -> [failures], CI-sized kwargs).
ARMS = {row.name: (row.run, row.check, row.smoke) for row in CLAIMS}


def show(*names):
    """Print the rows named (``claim_`` left off) at CI size — the claim,
    each count against what the claim needs, each failure — then ``OK``
    if none failed; returns the exit status.  ``examples/`` is these
    calls."""
    failed = False
    for row in CLAIMS:
        if row.name[len("claim_"):] in names:
            result = row.run(**row.smoke)
            print("%s (%s): %s" % (row.name, row.section, row.claim))
            for key, (got, want) in result.items():
                print("  %-32s %r (needs %r)" % (key, got, want))
            for failure in row.check(result):
                print("  FAIL: %s" % failure)
                failed = True
    print("FAILED" if failed else "OK")
    return int(failed)


def paper_map(results):
    """``docs/PAPER_MAP.md``, the view of ``CLAIMS`` and ``EXECUTED``."""
    lines = ["# The paper, claim by claim", "",
             "Generated from `CLAIMS` in `benchmarks/bench_claims.py` by a",
             "full `python benchmarks/run_bench.py`; do not edit.", "",
             "| paper | row | claim | verdict | modules executed |",
             "|---|---|---|---|---|"]
    for row in CLAIMS:
        result = results[row.name]
        lines.append("| %s | `%s` | %s | %s | %s |" % (
            row.section, row.name, row.claim,
            "**FAILS**" if row.check(result) else "holds: " + ", ".join(
                "%s %s" % (key, got) for key, (got, _) in result.items()),
            ", ".join("`%s`" % module for module in EXECUTED[row.name])))
    lines += ["", "## §2.3: the rights each operation declares", "",
              "Generated from `ObjectServer.rights_table()` of every server",
              "under `src/repro`, each listing the operations it defines",
              "itself (it inherits the rest).  Dispatch admits the header",
              "capability against `needs` and every extra capability against",
              "`extra` before the handler runs; `-` is no capability there.",
              "", "| server | operation | needs | extra |", "|---|---|---|---|"]
    for server in object_servers():
        for opcode, name, needs, extra in server.rights_table():
            if name in vars(server):
                lines.append("| `%s` | %d `%s` | %s | %s |" % (
                    server.__name__, opcode, name, _mask(needs), _mask(extra)))
    return "\n".join(lines) + "\n"


def _mask(rights):
    return "-" if rights is None else "`0x%02x`" % int(rights)


def object_servers():
    """Every ``ObjectServer`` class defined under ``src/repro``, by name."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    found, stack = {ObjectServer}, [ObjectServer]
    while stack:
        for subclass in stack.pop().__subclasses__():
            stack.append(subclass)
            if subclass.__module__.startswith("repro."):
                found.add(subclass)
    return sorted(found, key=lambda server: server.__name__)
