"""The directory server (§3.4): (ASCII name, capability) sets.

"The directory server manages directories, each of which is a set of
(ASCII name, capability) pairs."  Directories map names to *whole
capabilities*, and the stored capabilities "need not all be file
capabilities and certainly need not all be located in the same place or
managed by the same server" — a path walk hops transparently between
directory servers because each lookup returns a capability whose port
says where to go next.  :func:`resolve_path` implements that client-side
walk.
"""

import struct

from repro.core.capability import Capability
from repro.core.rights import Rights
from repro.errors import BadRequest, NameExists, NameNotFound
from repro.ipc.client import ServiceClient
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE

R_LOOKUP = 0x01
R_MODIFY = 0x02

DIR_CREATE = USER_BASE + 0
DIR_LOOKUP = USER_BASE + 1
DIR_ENTER = USER_BASE + 2
DIR_REMOVE = USER_BASE + 3
DIR_LIST = USER_BASE + 4

#: Longest accepted entry name; generous for 1986.
MAX_NAME = 255


def _check_name(name):
    if not name:
        raise BadRequest("directory entry name cannot be empty")
    if len(name) > MAX_NAME:
        raise BadRequest("name longer than %d bytes" % MAX_NAME)
    if "/" in name:
        raise BadRequest("entry names cannot contain '/'")
    return name


class Directory:
    """One directory object: an ordered name -> capability map."""

    def __init__(self):
        self.entries = {}

    def __len__(self):
        return len(self.entries)


class DirectoryCodec:
    """On-disk form of a :class:`Directory` for the durable store.

    Explicit and versionable — per entry ``[2B name length][name utf-8]
    [2B cap length][packed capability]`` — never pickle.  Encoding
    snapshots the name map with one ``list(...)`` call (atomic under
    the GIL), so a handler mutating the directory concurrently can
    never tear the encoding mid-entry.

    Delta form (what ENTER and REMOVE log in place of the whole image):
    ``[1B tag][2B name length][2B cap length][name utf-8][packed
    capability]`` — tag 1 *sets* name to the capability, tag 2
    *deletes* name (cap length 0).  Both are assignments, not
    insert/remove: applying one twice, or on top of an image that
    already reflects it, changes nothing.
    """

    _DELTA = struct.Struct(">BHH")
    _SET, _DELETE = 1, 2

    @classmethod
    def set_delta(cls, name, capability):
        raw_name = name.encode("utf-8")
        raw_cap = capability.pack()
        return (
            cls._DELTA.pack(cls._SET, len(raw_name), len(raw_cap))
            + raw_name + raw_cap
        )

    @classmethod
    def delete_delta(cls, name):
        raw_name = name.encode("utf-8")
        return cls._DELTA.pack(cls._DELETE, len(raw_name), 0) + raw_name

    def apply_delta(self, data, raw):
        """Replay one delta onto ``data``; returns the updated payload."""
        if not isinstance(data, Directory):
            raise TypeError("directory delta for a %s" % type(data).__name__)
        tag, name_len, cap_len = self._DELTA.unpack_from(raw)
        offset = self._DELTA.size
        if len(raw) != offset + name_len + cap_len:
            raise ValueError("directory delta length mismatch")
        name = raw[offset: offset + name_len].decode("utf-8")
        if tag == self._SET:
            data.entries[name] = Capability.unpack(raw[offset + name_len:])
        elif tag == self._DELETE and not cap_len:
            data.entries.pop(name, None)
        else:
            raise ValueError("unknown directory delta tag %d" % tag)
        return data

    def encode(self, data):
        if not isinstance(data, Directory):
            raise TypeError(
                "DirectoryCodec cannot encode %s" % type(data).__name__
            )
        items = list(data.entries.items())
        parts = [struct.pack(">I", len(items))]
        for name, capability in items:
            raw_name = name.encode("utf-8")
            raw_cap = capability.pack()
            parts.append(struct.pack(">HH", len(raw_name), len(raw_cap)))
            parts.append(raw_name)
            parts.append(raw_cap)
        return b"".join(parts)

    def decode(self, raw):
        directory = Directory()
        (count,) = struct.unpack_from(">I", raw)
        offset = 4
        for _ in range(count):
            name_len, cap_len = struct.unpack_from(">HH", raw, offset)
            offset += 4
            name = raw[offset: offset + name_len].decode("utf-8")
            offset += name_len
            capability = Capability.unpack(raw[offset: offset + cap_len])
            offset += cap_len
            directory.entries[name] = capability
        if offset != len(raw):
            raise ValueError("trailing bytes in directory payload")
        return directory


class DirectoryServer(ObjectServer):
    """Lookup, enter, and remove (name, capability) pairs.

    The first durable service: construct via :meth:`durable` (or pass
    ``store=DurableStore(disk, codec=DirectoryCodec())``) and every
    create/enter/remove survives a crash — ``reboot()`` on a new
    incarnation replays the disk (see ``ObjectServer.reboot``).
    """

    service_name = "directory server"

    @classmethod
    def durable(cls, node, disk=None, dedup=True, **kwargs):
        """Build a durable directory server on ``disk`` (a fresh
        :class:`~repro.disk.virtualdisk.VirtualDisk` when omitted).
        Dedup defaults on: a durable name service should also suppress
        duplicate ENTER/REMOVE across retries and reboots."""
        from repro.disk.wal import DurableStore

        store = DurableStore(disk, codec=DirectoryCodec())
        return cls(node, store=store, dedup=dedup, **kwargs)

    @command(DIR_CREATE)
    def _create(self, ctx):
        """Create a fresh empty directory, returning its capability."""
        cap = self.table.create(Directory())
        return ctx.ok(capability=cap)

    @command(DIR_LOOKUP)
    def _lookup(self, ctx):
        """Look up one name; the stored capability comes back verbatim."""
        entry, _ = ctx.lookup(Rights(R_LOOKUP))
        directory = self._as_directory(entry)
        name = ctx.request.data.decode("utf-8", "replace")
        try:
            stored = directory.entries[name]
        except KeyError:
            raise NameNotFound("no entry %r in this directory" % name) from None
        return ctx.ok(capability=stored)

    @command(DIR_ENTER)
    def _enter(self, ctx):
        """Enter (name, capability); the capability rides as an extra cap.

        ``size`` non-zero allows replacing an existing entry.
        """
        entry, _ = ctx.lookup(Rights(R_MODIFY))
        directory = self._as_directory(entry)
        name = _check_name(ctx.request.data.decode("utf-8", "replace"))
        if not ctx.request.extra_caps:
            raise BadRequest("ENTER requires the capability to store")
        if name in directory.entries and not ctx.request.size:
            raise NameExists("entry %r already exists" % name)
        stored = ctx.request.extra_caps[0]
        directory.entries[name] = stored
        if self.store is not None:
            self.table.persist(
                entry.number, delta=DirectoryCodec.set_delta(name, stored)
            )
        return ctx.ok()

    @command(DIR_REMOVE)
    def _remove(self, ctx):
        entry, _ = ctx.lookup(Rights(R_MODIFY))
        directory = self._as_directory(entry)
        name = ctx.request.data.decode("utf-8", "replace")
        if name not in directory.entries:
            raise NameNotFound("no entry %r in this directory" % name)
        del directory.entries[name]
        if self.store is not None:
            self.table.persist(
                entry.number, delta=DirectoryCodec.delete_delta(name)
            )
        return ctx.ok()

    @command(DIR_LIST)
    def _list(self, ctx):
        entry, _ = ctx.lookup(Rights(R_LOOKUP))
        directory = self._as_directory(entry)
        listing = "\n".join(sorted(directory.entries))
        return ctx.ok(data=listing.encode("utf-8"), size=len(directory.entries))

    @staticmethod
    def _as_directory(entry):
        if not isinstance(entry.data, Directory):
            raise BadRequest("object %d is not a directory" % entry.number)
        return entry.data

    def describe(self, entry):
        return "directory with %d entries" % len(entry.data)

    def create_root(self):
        """Mint a root directory locally (bootstrap; not a wire operation)."""
        return self.table.create(Directory())


class DirectoryClient(ServiceClient):
    """Typed client for one directory server."""

    def create_directory(self, parent_cap=None, name=None, overwrite=False):
        """Create a directory; optionally enter it into a parent."""
        cap = self.call(DIR_CREATE).capability
        if parent_cap is not None:
            if name is None:
                raise ValueError("a name is required to enter into a parent")
            self.enter(parent_cap, name, cap, overwrite=overwrite)
        return cap

    def lookup(self, dir_cap, name):
        return self.call(
            DIR_LOOKUP, capability=dir_cap, data=name.encode("utf-8")
        ).capability

    def enter(self, dir_cap, name, target_cap, overwrite=False):
        self.call(
            DIR_ENTER,
            capability=dir_cap,
            data=name.encode("utf-8"),
            extra_caps=(target_cap,),
            size=1 if overwrite else 0,
        )

    def remove(self, dir_cap, name):
        self.call(DIR_REMOVE, capability=dir_cap, data=name.encode("utf-8"))

    def list(self, dir_cap):
        reply = self.call(DIR_LIST, capability=dir_cap)
        text = reply.data.decode("utf-8")
        return text.split("\n") if text else []


def resolve_path(node, root_cap, path, rng=None, locator=None, client_factory=None):
    """Walk ``a/b/c`` from a root directory, hopping servers transparently.

    Each step asks whichever server the *current* capability names — "if
    the capability returned happens to be for a directory managed by a
    different directory server, then the ensuing request ... just goes to
    the new server.  The distribution is completely transparent."

    ``client_factory(port) -> ServiceClient`` may be supplied to reuse
    configured clients (signatures, sealing); the default builds plain
    clients per hop.
    """
    current = root_cap
    components = [c for c in path.split("/") if c]
    for component in components:
        if client_factory is not None:
            client = client_factory(current.port)
        else:
            client = DirectoryClient(node, current.port, rng=rng, locator=locator)
        reply = client.call(
            DIR_LOOKUP, capability=current, data=component.encode("utf-8")
        )
        current = reply.capability
    return current
