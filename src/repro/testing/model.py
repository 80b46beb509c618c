"""The naive reference: what one durable directory server must answer.

A deterministic sequential specification, the oracle shape of Aspnes'
*Notes on Theory of Distributed Systems* (PAPERS.md): the state is a
plain dict, each operation a function of it, and every history the
stack produces, through its caches, batches, retries, log and reboots,
must be one this model produces.  It has none of those.

Per object number: its generation, its names and whether it is alive.
A held capability is ``(number, generation at mint, rights)``; it
validates iff its object is alive at that generation, and admits an
operation iff its rights cover the operation's needs (§2.2-2.3).
Rights only narrow; under ``simple`` a capability has them all and
cannot be narrowed.

An operation returns its verdict, the error class the server must reply
with or None, and changes the state only on None.  Its docstring names
the ``bench_claims.CLAIMS`` row whose sentence it states.
"""

from dataclasses import dataclass, field

from repro.errors import (
    BadRequest,
    InvalidCapability,
    NameExists,
    NameNotFound,
    NoSuchObject,
    PermissionDenied,
)

#: The rights the directory server declares: LOOKUP and LIST need the
#: first, ENTER and REMOVE the second, REFRESH and DESTROY the third.
LOOKUP, MODIFY, ADMIN = 0x01, 0x02, 0x80
ALL = 0xFF


@dataclass
class Model:
    """One server's objects and the capabilities a client holds."""

    scheme: str
    #: number -> [generation, {name: stored capability}, alive]
    objects: dict = field(default_factory=dict)
    #: (number, generation at mint, rights), in the order minted.
    held: list = field(default_factory=list)

    def refusal(self, index, needs):
        """``(verdict, row)`` for capability ``index`` on an operation
        needing ``needs`` (claim_stolen_then_revoked)."""
        number, generation, rights = self.held[index]
        row = self.objects.get(number)
        if row is None or not row[2]:
            return NoSuchObject, row
        if row[0] != generation:
            return InvalidCapability, row
        if needs & ~rights:
            return PermissionDenied, row
        return None, row

    def create(self, number):
        """A directory on ``number`` one generation above its last, and its
        owner capability (claim_revocation)."""
        row = self.objects.get(number)
        assert row is None or not row[2], "create reissued live %d" % number
        generation = 0 if row is None else row[0] + 1
        self.objects[number] = [generation, {}, True]
        self.held.append((number, generation, ALL))

    def restrict(self, index, keep):
        """``keep`` of the rights (claim_server_restrict)."""
        verdict, _ = self.refusal(index, 0)
        if verdict is None and self.scheme == "simple":
            verdict = BadRequest
        if verdict is None:
            number, generation, rights = self.held[index]
            self.held.append((number, generation, rights & keep))
        return verdict

    def refresh(self, index):
        """A new generation and owner capability (claim_revocation)."""
        verdict, row = self.refusal(index, ADMIN)
        if verdict is None:
            row[0] += 1
            self.held.append((self.held[index][0], row[0], ALL))
        return verdict

    def destroy(self, index):
        """The object is gone (claim_touch_and_age)."""
        verdict, row = self.refusal(index, ADMIN)
        if verdict is None:
            row[2] = False
        return verdict

    def enter(self, index, name, stored, overwrite=False):
        """``name`` maps to ``stored`` (claim_unix_facade)."""
        verdict, row = self.refusal(index, MODIFY)
        if verdict is None and name in row[1] and not overwrite:
            verdict = NameExists
        if verdict is None:
            row[1][name] = stored
        return verdict

    def remove(self, index, name):
        """``name`` is no longer there (claim_unix_facade)."""
        verdict, row = self.refusal(index, MODIFY)
        if verdict is None and name not in row[1]:
            verdict = NameNotFound
        if verdict is None:
            del row[1][name]
        return verdict

    def lookup(self, index, name):
        """``(verdict, what name stores)`` (claim_unix_facade)."""
        verdict, row = self.refusal(index, LOOKUP)
        if verdict is None and name not in row[1]:
            verdict = NameNotFound
        return verdict, (None if verdict else row[1][name])

    def listing(self, index):
        """``(verdict, the names in order)`` (claim_unix_facade)."""
        verdict, row = self.refusal(index, LOOKUP)
        return verdict, (None if verdict else sorted(row[1]))

    def view(self):
        """``{number: (generation, {name: stored})}``, live objects only."""
        return {number: (row[0], dict(row[1]))
                for number, row in self.objects.items() if row[2]}
