"""A UNIX-like file system facade over the directory and flat file servers.

§3.5 closes: "The third file system is a capability-based UNIX file
system, to ease the problem of moving existing applications from UNIX to
Amoeba."  This module is that compatibility layer: paths, file
descriptors, and read/write/seek, implemented entirely with directory
lookups and flat-file operations — no new server, just a client library,
which is itself a demonstration of how far user-space capability
management goes.
"""

import os

from repro.errors import BadRequest, NameNotFound
from repro.servers.directory import DirectoryClient, resolve_path
from repro.servers.flatfile import FlatFileClient


class _OpenFile:
    """One file-descriptor table entry."""

    def __init__(self, capability, mode):
        self.capability = capability
        self.mode = mode
        self.position = 0


class UnixFs:
    """open/read/write/seek/close over Amoeba capabilities.

    Parameters
    ----------
    node:
        The client station.
    root_cap:
        Capability for the root directory.
    file_port:
        Put-port of the flat file server used to create new files.
    """

    def __init__(self, node, root_cap, file_port, rng=None, locator=None):
        self.node = node
        self.root_cap = root_cap
        self.rng = rng
        self.locator = locator
        self._files = FlatFileClient(node, file_port, rng=rng, locator=locator)
        self._fds = {}
        self._next_fd = 3  # 0..2 are spoken for, as tradition demands

    # ------------------------------------------------------------------
    # path plumbing
    # ------------------------------------------------------------------

    def _split(self, path):
        path = path.strip("/")
        if not path:
            raise BadRequest("empty path")
        parent, _, name = path.rpartition("/")
        return parent, name

    def _dir_client(self, dir_cap):
        return DirectoryClient(
            self.node, dir_cap.port, rng=self.rng, locator=self.locator
        )

    def _resolve(self, path):
        return resolve_path(
            self.node, self.root_cap, path, rng=self.rng, locator=self.locator
        )

    def _resolve_parent(self, path):
        parent, name = self._split(path)
        parent_cap = self._resolve(parent) if parent else self.root_cap
        return parent_cap, name

    # ------------------------------------------------------------------
    # the POSIX-flavoured calls
    # ------------------------------------------------------------------

    def creat(self, path):
        """Create an empty file and enter it under ``path``."""
        parent_cap, name = self._resolve_parent(path)
        file_cap = self._files.create()
        self._dir_client(parent_cap).enter(parent_cap, name, file_cap)
        return file_cap

    def open(self, path, mode="r"):
        """Open ``path``; modes are "r", "w" (truncate), and "a" (append).

        Returns a small-integer file descriptor.
        """
        if mode not in ("r", "w", "a"):
            raise BadRequest("unsupported mode %r" % mode)
        if mode == "w":
            # Flat files have no truncate (§3.3's operation set is
            # CREATE/DESTROY/READ/WRITE), so "w" is: new file, replace
            # the directory entry, destroy the old file.
            parent_cap, name = self._resolve_parent(path)
            directory = self._dir_client(parent_cap)
            new_cap = self._files.create()
            try:
                old_cap = directory.lookup(parent_cap, name)
            except NameNotFound:
                old_cap = None
            directory.enter(parent_cap, name, new_cap, overwrite=True)
            if old_cap is not None:
                self._client_for(old_cap).destroy(old_cap)
            capability = new_cap
        else:
            try:
                capability = self._resolve(path)
            except NameNotFound:
                if mode == "a":
                    return self.open_cap(self.creat(path), mode)
                raise
        return self.open_cap(capability, mode)

    def open_cap(self, capability, mode="r"):
        """Open an already-held capability without any path lookup."""
        handle = _OpenFile(capability, mode)
        if mode == "a":
            handle.position = self._file_client(capability).size(capability)
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = handle
        return fd

    def read(self, fd, count):
        handle = self._handle(fd)
        data = self._file_client(handle.capability).read(
            handle.capability, handle.position, count
        )
        handle.position += len(data)
        return data

    def write(self, fd, data):
        handle = self._handle(fd)
        if handle.mode == "r":
            raise BadRequest("fd %d is read-only" % fd)
        self._file_client(handle.capability).write(
            handle.capability, handle.position, data
        )
        handle.position += len(data)
        return len(data)

    def lseek(self, fd, offset, whence=os.SEEK_SET):
        handle = self._handle(fd)
        if whence == os.SEEK_SET:
            position = offset
        elif whence == os.SEEK_CUR:
            position = handle.position + offset
        elif whence == os.SEEK_END:
            size = self._file_client(handle.capability).size(handle.capability)
            position = size + offset
        else:
            raise BadRequest("bad whence %r" % whence)
        if position < 0:
            raise BadRequest("seek before start of file")
        handle.position = position
        return position

    def close(self, fd):
        self._handle(fd)
        del self._fds[fd]

    def unlink(self, path):
        """Remove the directory entry and destroy the file."""
        parent_cap, name = self._resolve_parent(path)
        directory = self._dir_client(parent_cap)
        target = directory.lookup(parent_cap, name)
        directory.remove(parent_cap, name)
        self._client_for(target).destroy(target)

    def mkdir(self, path):
        """Create a subdirectory (on the parent's directory server)."""
        parent_cap, name = self._resolve_parent(path)
        directory = self._dir_client(parent_cap)
        return directory.create_directory(parent_cap, name)

    def listdir(self, path="/"):
        target = self._resolve(path) if path.strip("/") else self.root_cap
        return self._dir_client(target).list(target)

    def stat(self, path):
        """Size and server port for a path (what a capability reveals)."""
        capability = self._resolve(path)
        size = self._file_client(capability).size(capability)
        return {"size": size, "port": capability.port, "object": capability.object}

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _handle(self, fd):
        try:
            return self._fds[fd]
        except KeyError:
            raise BadRequest("bad file descriptor %d" % fd) from None

    def _file_client(self, capability):
        if capability.port == self._files.put_port:
            return self._files
        return FlatFileClient(
            self.node, capability.port, rng=self.rng, locator=self.locator
        )

    def _client_for(self, capability):
        return self._file_client(capability)
