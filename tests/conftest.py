"""Shared fixtures: seeded randomness, a simulated network, and servers.

Every fixture uses deterministic randomness so failures replay exactly;
the schemes and protocols themselves never depend on the seed.
"""

from contextlib import contextmanager
from unittest import mock

import pytest

from repro.core import ports
from repro.crypto.randomsrc import RandomSource
from repro.ipc.client import ServiceClient
from repro.kernel.machine import Machine
from repro.net import fbox
from repro.net.network import SimNetwork
from repro.net.nic import Nic


@pytest.fixture(scope="session")
def port_cache_max():
    """``with port_cache_max(4): ...`` — the bound of both per-frame port
    caches (the intern table, every F-box's images) for the block, set in
    the two modules that read it.  Nothing in the program can set it;
    tests shrink it so that a flush happens every few frames.  Session
    scope (it holds no state) so Hypothesis tests may take it."""

    @contextmanager
    def patched(bound):
        with mock.patch.object(ports, "PORT_CACHE_MAX", bound), \
                mock.patch.object(fbox, "PORT_CACHE_MAX", bound):
            yield

    return patched


@pytest.fixture
def worlds():
    """``worlds(cls, station, ...)`` builds a
    :class:`~repro.testing.world.World`, or a test's subclass of it, and
    closes every one it built at teardown."""
    made = []

    def make(cls, *args, **kwargs):
        made.append(cls(*args, **kwargs))
        return made[-1]

    yield make
    for world in made:
        world.close()


@pytest.fixture
def rng():
    return RandomSource(seed=0xA40EBA)


@pytest.fixture
def net():
    return SimNetwork()


@pytest.fixture
def server_nic(net):
    return Nic(net)


@pytest.fixture
def client_nic(net):
    return Nic(net)


@pytest.fixture
def machines(net):
    """A (server machine, client machine) pair with kernels installed."""
    return (
        Machine(net, rng=RandomSource(seed=11), name="server-machine"),
        Machine(net, rng=RandomSource(seed=22), name="client-machine"),
    )


def make_client(nic, server, rng, **kwargs):
    """A ServiceClient wired to a server with signature checking on."""
    kwargs.setdefault("expect_signature", server.signature_image)
    return ServiceClient(nic, server.put_port, rng=rng, **kwargs)
