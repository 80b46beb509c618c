"""RPC and service plumbing on top of the network substrate.

Amoeba's communication model (§2.1): a client performs an operation on an
object by sending a request — one message carrying a capability, an
operation code, and parameters — and blocking until the reply arrives.
There are no connections or long-lived communication structures.
"""

from repro import _lazy

_EXPORTS = {
    "client": "ServiceClient",
    "locate": "Locator install_locate_responder",
    "rpc": "AsyncTrans trans trans_many",
    "server": "ObjectServer RequestContext command",
    "stdops": "HERE LOCATE RIGHT_ADMIN STD_DESTROY STD_INFO STD_REFRESH"
              " STD_RESTRICT STD_TOUCH USER_BASE",
}

__all__, __getattr__ = _lazy(globals())
