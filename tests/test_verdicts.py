"""One capability verdict (§2.2-2.3): every refusal is ``refuse(Verdict.X)``.

A capability check ends in one decision: admit, or one of five
refusals, each one wire error class and one fixed text.  These tests
hold the tree to it: no other ``raise`` of a capability error in
``src/repro``, the refusal sites counted as data, the schemes computing
without deciding, a refused lookup touching nothing, and each verdict
provoked once with the client seeing exactly its class, code and text.
"""

import ast
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import repro.errors as errors
from repro.core.capability import Capability
from repro.core.ports import Port
from repro.core.registry import ObjectTable
from repro.core.rights import ALL_RIGHTS, NO_RIGHTS
from repro.core.schemes import scheme_by_name
from repro.crypto.randomsrc import RandomSource
from repro.errors import CapabilityError, Verdict, code_to_error
from repro.ipc.client import ServiceClient
from repro.ipc.server import ObjectServer
from repro.softprot.matrix import CapabilitySealer, KeyMatrix
from repro.testing.world import World

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Ceiling on the ``refuse(Verdict.X)`` call sites in ``src/repro``, per
#: verdict.  Lower a number when a site goes; raising one needs a reason.
REFUSAL_SITES = {
    "MALFORMED": 1,  # Capability.unpack
    "NO_SUCH_OBJECT": 3,  # ObjectTable.lookup, ._entry, .persist
    "BAD_CHECK": 2,  # ObjectTable.lookup: a foreign port, a failed check
    "RIGHTS": 1,  # ObjectTable.lookup
    "SEAL_REJECTED": 3,  # unseal, unseal_message, require_sealed admission
}

#: The wire code of each verdict: the codes predate the verdicts and
#: never change.
WIRE_CODES = {
    "MALFORMED": 14,
    "NO_SUCH_OBJECT": 13,
    "BAD_CHECK": 11,
    "RIGHTS": 12,
    "SEAL_REJECTED": 11,
}

CAPABILITY_ERRORS = {
    name for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, CapabilityError)
}


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _named(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


class TestTheOneSite:
    def test_no_raise_names_a_capability_error(self):
        offenders = [
            "%s:%d" % (module, node.lineno)
            for module, tree in _trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and node.exc is not None
            and _named(node.exc) & CAPABILITY_ERRORS
        ]
        assert offenders == []

    def test_refusal_sites_within_their_counts(self):
        sites = Counter()
        for module, tree in _trees():
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "refuse"):
                    (verdict,) = node.args
                    assert ast.unparse(verdict).startswith("Verdict."), (
                        "%s:%d refuses a computed verdict"
                        % (module, node.lineno))
                    sites[verdict.attr] += 1
        assert set(REFUSAL_SITES) == {v.name for v in Verdict}
        assert all(1 <= sites[name] <= most
                   for name, most in REFUSAL_SITES.items()), sites
        assert set(sites) == set(REFUSAL_SITES)

    def test_schemes_import_no_capability_error(self):
        tree = ast.parse((SRC / "core" / "schemes.py").read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and node.module == "repro.errors"
                    for alias in node.names}
        assert imported == {"BadRequest"}

    def test_each_verdict_is_one_code_and_one_text(self):
        assert {v.name: v.error.code for v in Verdict} == WIRE_CODES
        assert len({v.text for v in Verdict}) == len(Verdict)
        assert all(issubclass(v.error, CapabilityError) for v in Verdict)


class TestRefusedLookup:
    def test_a_refused_lookup_touches_nothing(self):
        port = Port(0x7E57ED)
        table = ObjectTable(scheme_by_name("xor-oneway"), port,
                            rng=RandomSource(seed=5), default_lifetime=3)
        owner = table.create("x")
        proven = table.restrict(owner, 0x01)
        table.lookup(proven)  # into the verified memo
        cold = table.restrict(owner, 0x02)  # never verified
        entry = table._entry(owner.object)
        entry.lifetime = 1
        before = (entry.touches, entry.lifetime, dict(entry.verified))
        refusals = (
            (proven, ALL_RIGHTS, Verdict.RIGHTS),  # the memo path
            (cold, ALL_RIGHTS, Verdict.RIGHTS),  # the verify path
            (owner.with_check(bytes(6)), NO_RIGHTS, Verdict.BAD_CHECK),
            (replace(owner, port=Port(7)), NO_RIGHTS, Verdict.BAD_CHECK),
            (replace(owner, object=9), NO_RIGHTS, Verdict.NO_SUCH_OBJECT),
        )
        for capability, required, verdict in refusals:
            with pytest.raises(verdict.error, match="^%s$" % verdict.text):
                table.lookup(capability, required)
        assert (entry.touches, entry.lifetime, dict(entry.verified)) == before


def _server(world, **options):
    return ObjectServer(world.node(), rng=RandomSource(seed=2),
                        **options).start()


def _client(world, server):
    return ServiceClient(world.node(), server.put_port,
                         rng=RandomSource(seed=3))


def _malformed(world):
    Capability.unpack(bytes(5))


def _no_such_object(world):
    server = _server(world)
    owner = server.table.create("x")
    client = _client(world, server)
    client.destroy(owner)
    client.touch(owner)


def _forged_check(world):
    server = _server(world)
    _client(world, server).touch(server.table.create("x").with_check(bytes(6)))


def _foreign_port(world):
    server = _server(world)
    owner = server.table.create("x")
    _client(world, server).touch(replace(owner, port=Port(7)))


def _rights(world):
    server = _server(world)
    client = _client(world, server)
    client.refresh(client.restrict(server.table.create("x"), 0x01))


def _plaintext_to_a_sealed_server(world):
    node = world.node()
    matrix = KeyMatrix(rng=RandomSource(seed=4))
    server = ObjectServer(node, rng=RandomSource(seed=2),
                          sealer=CapabilitySealer(matrix.view(node.address)),
                          require_sealed=True).start()
    _client(world, server).touch(server.table.create("x"))


STIMULI = [
    (Verdict.MALFORMED, _malformed),
    (Verdict.NO_SUCH_OBJECT, _no_such_object),
    (Verdict.BAD_CHECK, _forged_check),
    (Verdict.BAD_CHECK, _foreign_port),
    (Verdict.RIGHTS, _rights),
    (Verdict.SEAL_REJECTED, _plaintext_to_a_sealed_server),
]


@pytest.mark.parametrize("verdict, stimulus", STIMULI,
                         ids=[fn.__name__.strip("_") for _, fn in STIMULI])
def test_the_client_sees_the_verdict(worlds, verdict, stimulus):
    with pytest.raises(CapabilityError) as refused:
        stimulus(worlds(World, "synchronous"))
    exc = refused.value
    assert type(exc) is verdict.error and exc.code == WIRE_CODES[verdict.name]
    assert str(exc) == verdict.text
    # (code, text) is the whole verdict, on either side of the wire.
    again = code_to_error(exc.code, str(exc))
    assert type(again) is type(exc) and str(again) == str(exc)
