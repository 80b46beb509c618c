"""Direct-drive the §2.4 capability caches: full 1024-entry caches
(256 objects x 4 machines), best of 7, us per operation.

No ``BENCHMARK.json`` workload constructs a sealer or either capability
cache, so the suite cannot price a change to ``softprot/cache.py``;
this drives ``forget_object`` (revocation), lookup-hit (the request
path) and ``remember`` (the miss path, each insert displacing one
triple) directly — the table in docs/PERFORMANCE.md "Sharded data
plane".

usage: PYTHONPATH=src python benchmarks/bench_capcache.py [<other tree>/src]

With another tree's src it loads *that* tree's ``softprot/cache.py``
beside this one and alternates the two inside one process, so a noisy
host hits both sides alike ("parent" rows are the other tree's).
"""
import importlib.util
import sys
import time

from repro.core.capability import Capability
from repro.core.ports import Port
from repro.core.rights import Rights
from repro.softprot import cache as this_tree

N = 1024
PORT = Port(1)
CAPS = [
    Capability(port=PORT, object=n, rights=Rights(0xFF),
               check=n.to_bytes(6, "big"))
    for n in range(4 * N)
]
SEALED = [b"sealed-%06d" % n for n in range(4 * N)]


def fill(cache, client):
    # 256 objects x 4 machines = 1024 triples: a full cache.
    for n in range(N // 4):
        for machine in range(4):
            if client:
                cache.remember(CAPS[n], machine, SEALED[n * 4 + machine])
            else:
                cache.remember(SEALED[n * 4 + machine], machine, CAPS[n])


def best_of(fn, repeats=7):
    return min(fn() for _ in range(repeats))


def bench(client, module):
    make = (module.ClientCapabilityCache if client
            else module.ServerCapabilityCache)

    def forget():
        cache = make(max_entries=N)
        fill(cache, client)
        t0 = time.perf_counter()
        for n in range(N // 4):
            cache.forget_object(PORT, n)
        dt = time.perf_counter() - t0
        assert len(cache) == 0
        return dt / (N // 4)

    def lookup():
        cache = make(max_entries=N)
        fill(cache, client)
        keys = [
            (CAPS[n], m) if client else (SEALED[n * 4 + m], m)
            for n in range(N // 4) for m in range(4)
        ]
        # A striped cache displaces a few triples while filling (uneven
        # stripes); time hits only, on either tree.
        keys = [key for key in keys if key in cache]
        look = cache.lookup
        before = cache.hits
        t0 = time.perf_counter()
        for _ in range(20):
            for a, b in keys:
                look(a, b)
        dt = time.perf_counter() - t0
        assert cache.hits - before == 20 * len(keys) and len(keys) > N // 2
        return dt / (20 * len(keys))

    def remember():
        # Full cache, every insert a fresh key: each displaces one triple.
        cache = make(max_entries=N)
        fill(cache, client)
        fresh = [
            (CAPS[N + n], 0, SEALED[N + n]) if client
            else (SEALED[N + n], 0, CAPS[N + n])
            for n in range(2 * N)
        ]
        rem = cache.remember
        t0 = time.perf_counter()
        for a, b, c in fresh:
            rem(a, b, c)
        dt = time.perf_counter() - t0
        assert N // 2 < len(cache) <= N
        return dt / (2 * N)

    return {
        "forget_object": best_of(forget) * 1e6,
        "lookup_hit": best_of(lookup) * 1e6,
        "remember": best_of(remember) * 1e6,
    }


def load_parent(src):
    spec = importlib.util.spec_from_file_location(
        "parent_cache", src + "/repro/softprot/cache.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


if __name__ == "__main__":
    sides = [("change", this_tree)]
    if len(sys.argv) > 1:
        sides.insert(0, ("parent", load_parent(sys.argv[1])))
    for name, client in (("client", True), ("server", False)):
        rows = {}
        for _ in range(3):  # alternate the sides, keep each one's best
            for side, module in sides:
                row = bench(client, module)
                best = rows.setdefault(side, row)
                for key, value in row.items():
                    best[key] = min(best[key], value)
        for side, _ in sides:
            row = rows[side]
            print("%-6s %-7s forget_object %7.2f us  lookup-hit %5.2f us  "
                  "remember %5.2f us" % (side, name, row["forget_object"],
                                         row["lookup_hit"], row["remember"]))
