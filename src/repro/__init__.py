"""repro — a reproduction of "Using Sparse Capabilities in a Distributed
Operating System" (Tanenbaum, Mullender, van Renesse; ICDCS 1986).

The library rebuilds the Amoeba capability architecture in Python:

* :mod:`repro.core` — sparse capabilities, ports, and the four
  rights-protection algorithms of §2.3;
* :mod:`repro.net` — the simulated broadcast LAN, F-boxes, and the
  intruder of Fig. 1 (plus a real UDP transport);
* :mod:`repro.ipc` — the blocking RPC, server skeleton, and LOCATE;
* :mod:`repro.softprot` — §2.4 protection without F-boxes (key matrix,
  capability caches, public-key bootstrap, link encryption);
* :mod:`repro.kernel` — machines, processes, and the memory server;
* :mod:`repro.servers` — the §3 server suite (block, flat file,
  directory, multiversion, bank, charging, UNIX-fs facade);
* :mod:`repro.disk` — the virtual (optionally write-once) disk.

Quickstart::

    from repro import SimNetwork, Machine, FlatFileServer, FlatFileClient

    net = SimNetwork()
    server_machine = Machine(net)
    client_machine = Machine(net)
    files = FlatFileServer(server_machine.nic).start()
    client = FlatFileClient(client_machine.nic, files.put_port)
    cap = client.create(b"hello, sparse capabilities")
    print(client.read(cap, 0, 26))
"""

import importlib

__version__ = "1.0.0"

#: Defining module (relative to this package) -> the names re-exported
#: from it, read by :func:`_lazy`.
_EXPORTS = {
    "core.capability": "Capability",
    "core.ports": "Port PrivatePort",
    "core.registry": "ObjectTable",
    "core.rights": "ALL_RIGHTS NO_RIGHTS Rights",
    "core.schemes": "CommutativeScheme EncryptedRightsScheme SimpleCheckScheme"
                    " XorOneWayScheme scheme_by_name",
    "errors": "AmoebaError CapabilityError InvalidCapability PermissionDenied",
    "ipc.client": "ServiceClient",
    "ipc.locate": "Locator",
    "ipc.rpc": "trans",
    "ipc.server": "ObjectServer command",
    "kernel.machine": "Machine",
    "kernel.memory": "MemoryClient MemoryServer",
    "net.fbox": "FBox",
    "net.intruder": "Intruder",
    "net.message": "Message",
    "net.network": "SimNetwork",
    "net.nic": "Nic",
    "servers.bank": "BankClient BankServer",
    "servers.block": "BlockClient BlockServer",
    "servers.charging": "ChargingFlatFileServer",
    "servers.directory": "DirectoryClient DirectoryServer resolve_path",
    "servers.flatfile": "FlatFileClient FlatFileServer",
    "servers.multiversion": "MultiversionClient MultiversionFileServer",
    "servers.unixfs": "UnixFs",
}


def _lazy(namespace):
    """A package's ``__all__`` and its PEP 562 module ``__getattr__``,
    from the package's ``_EXPORTS`` (defining module -> space-separated
    names).

    No re-export is imported until it is first read, and the read
    imports its defining module: a process thus loads only the modules
    it runs — the UDP echo server 23 of ``repro``'s, not every one that
    an eager ``from ... import`` chain would drag in.  The value is not
    bound into the package: a read always returns what the defining
    module holds *now*, so a wrapper patched over it (the benchmark's
    tracer probes every loaded ``repro`` module for the names it wraps)
    is never frozen into the package after it has been taken off.
    Nothing on a hot path reads through a package.
    """
    package = namespace["__name__"]
    table = {name: "%s.%s" % (package, module)
             for module, names in namespace["_EXPORTS"].items()
             for name in names.split()}

    def __getattr__(name):
        module = table.get(name)
        if module is None:
            raise AttributeError(
                "module %r has no attribute %r" % (package, name))
        return getattr(importlib.import_module(module), name)

    return sorted(table), __getattr__


__all__, __getattr__ = _lazy(globals())
