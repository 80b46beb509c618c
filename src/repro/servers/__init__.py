"""The Amoeba server suite of §3.

Every server the paper describes, each an ordinary user process built on
:class:`~repro.ipc.server.ObjectServer`: the block server, the flat file
server, the directory server, the multiversion file server, the bank
server, the charging file server that combines the last two (§3.6's
quota-by-pricing), and the UNIX-like file system facade.
"""

from repro import _lazy

_EXPORTS = {
    "bank": "BankClient BankServer",
    "block": "BlockClient BlockServer",
    "charging": "ChargingFlatFileServer",
    "directory": "DirectoryClient DirectoryServer resolve_path",
    "flatfile": "FlatFileClient FlatFileServer",
    "multiversion": "MultiversionClient MultiversionFileServer",
    "sweeper": "ReachabilitySweeper",
    "unixfs": "UnixFs",
}

__all__, __getattr__ = _lazy(globals())
