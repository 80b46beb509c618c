"""The paper's primary contribution: sparse, user-space capabilities.

This package implements the Fig. 2 capability layout, the port machinery
of §2.2, the four rights-protection algorithms of §2.3, and the server-side
object table with random-number revocation.
"""

from repro import _lazy

_EXPORTS = {
    "capability": "Capability",
    "ports": "NULL_PORT Port PrivatePort",
    "registry": "ObjectEntry ObjectTable",
    "rights": "ALL_RIGHTS NO_RIGHTS Rights",
    "schemes": "CommutativeScheme EncryptedRightsScheme ProtectionScheme"
               " SimpleCheckScheme XorOneWayScheme scheme_by_name",
}

__all__, __getattr__ = _lazy(globals())
