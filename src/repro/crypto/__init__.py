"""Cryptographic substrate for sparse capabilities.

The paper relies on four primitives, all built here from ``hashlib`` and
integer arithmetic (no external crypto packages):

* a one-way function ``F`` for ports and check fields (:mod:`~repro.crypto.oneway`),
* a family of *commutative* one-way functions for client-side rights
  restriction (:mod:`~repro.crypto.commutative`),
* a conventional block cipher standing in for DES
  (:mod:`~repro.crypto.feistel`), and
* a public-key cryptosystem for the no-F-box bootstrap protocol
  (:mod:`~repro.crypto.publickey`).

None of this is production cryptography; it is a faithful, testable
reproduction of the paper's constructions.
"""

from repro import _lazy

_EXPORTS = {
    "commutative": "CommutativeOneWayFamily",
    "feistel": "FeistelCipher",
    "oneway": "OneWayFunction default_oneway",
    "publickey": "KeyPair PublicKey generate_keypair",
    "randomsrc": "RandomSource",
}

__all__, __getattr__ = _lazy(globals())
