"""Reach at function grain: the ledger of what the stack actually runs.

The universe is every ``def`` under ``src/repro`` but the declarations
(``typing.Protocol`` bodies, ``@abstractmethod`` stubs).  The sources
are what the repository runs as its own account of itself:

* the claim rows of ``benchmarks/bench_claims.py``, at CI size;
* the arms of every other ``run_bench.py`` family, at CI size;
* one ``build`` / ``warm`` / ``slice(0)`` / ``finish`` / ``close`` of
  each ``benchmarks/suite/workloads.py`` workload, at seed 1;
* the ``udp`` rows of ``tests/test_rpc_parity.py``, which serve in this
  process the half of ``udp_pipelined16`` that the suite runs in a child.

They run in a fresh interpreter whose profile hook (``sys.setprofile``
and ``threading.setprofile``, so pump threads count) is in place before
the first ``import repro``, so import-time calls count too.  A function
no source reaches is in ``UNREACHED`` with a reason from ``REASONS``,
the closed set; one in neither, or in both, fails.  ``UNREACHED`` only
shrinks (``UNREACHED_MAX``), like ``make loc``.

Run as a script (``make reach``) it prints the ledger: each function and
the first source that reached it, then ``UNREACHED`` by reason.  With
``--tests`` (``make reach TESTS=1``) it also runs tier-1 under the hook
and lists every *API a test names* entry that no test reaches.
"""

import ast
import json
import os
import subprocess
import sys
import threading

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(TESTS)
SRC = os.path.join(REPO, "src", "repro")
BENCHMARKS = os.path.join(REPO, "benchmarks")

pytestmark = pytest.mark.integration

TEST_API = "API a test names"
ERROR_PATH = "error path, fuzzed by 1(d)"
#: A name ``benchmarks/suite/`` imports or wraps (``layers.METHOD_SPANS``
#: looks methods up in ``owner.__dict__``): it goes with the suite edit.
COMPAT = "compat mode awaiting 5(a)"
FORKED = "runs in a forked child"
REASONS = (TEST_API, ERROR_PATH, COMPAT, FORKED)


def _unreached(*lines):
    """``(module, reason, "qualname ...")`` lines -> ``{key: reason}``."""
    return {"%s::%s" % (module, name): reason
            for module, reason, names in lines for name in names.split()}


#: ``module::qualname`` -> why no source reaches it.
UNREACHED = _unreached(
    ("core/capability.py", TEST_API, "Capability.__repr__"),
    ("core/ports.py", COMPAT, "Port.random"),
    ("core/ports.py", TEST_API, "PrivatePort.__repr__"),
    ("core/rights.py", TEST_API, "Rights.__repr__"),
    ("crypto/oneway.py", COMPAT, "OneWayFunction.apply_bytes"),
    ("crypto/oneway.py", TEST_API, "OneWayFunction.__repr__"),
    ("disk/diskfaults.py", TEST_API, "DiskFaultPlan.stats"),
    ("disk/wal.py", ERROR_PATH, "ChainLog.repair_tail DefaultCodec.apply_delta"),
    # the replica_kill_failover arm forks its pool's members
    ("ipc/replica.py", FORKED, "_serve_forked"),
    ("ipc/replica.py", TEST_API,
     "ReplicaObjectServer._std_destroy ReplicaObjectServer.fanout_pending "
     "ReplicaObjectServer.sweep"),
    ("ipc/rpc.py", TEST_API,
     "AsyncTrans.__repr__ AsyncTrans.poll RetryPolicy.waits"),
    ("ipc/server.py", COMPAT, "ReplyCache.store"),
    ("net/faults.py", ERROR_PATH, "FaultPlan._corrupt FaultPlan._flip"),
    ("net/fbox.py", TEST_API, "FBox.__repr__"),
    ("net/network.py", TEST_API, "SimNetwork.pending"),
    ("net/nic.py", COMPAT, "Nic.put_many"),
    ("net/nic.py", TEST_API, "Nic.__repr__"),
    ("net/sched.py", TEST_API,
     "VirtualTimeLoop.pending VirtualTimeLoop.reset_stats "
     "VirtualTimeLoop.stats"),
    ("net/sockets.py", COMPAT,
     "SocketNode._transmit_runs SocketNode.flush_egress "
     "SocketNode.put_owned_unicast_bulk SocketNode.serve_batch"),
    ("net/sockets.py", ERROR_PATH, "SocketNode._handler_failed"),
    ("net/sockets.py", TEST_API,
     "SocketNode.__enter__ SocketNode.__exit__ SocketNode.__repr__ "
     "SocketNode.poll SocketNode.unlisten"),
    ("softprot/cache.py", TEST_API, "_CapabilityCache._unfile"),
)
UNREACHED_MAX = 37


# -- the universe ---------------------------------------------------------

def _named(node, name):
    """True when ``node`` (a decorator or a base) is ``name`` or
    ``something.name``."""
    return getattr(node, "attr", getattr(node, "id", None)) == name


def universe(root=SRC):
    """Every ``def`` under ``root`` as ``module::qualname`` (the code
    object's ``co_qualname``), declarations left out."""
    found = set()

    def walk(node, prefix, module, declared):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                protocol = any(_named(base, "Protocol")
                               for base in child.bases)
                walk(child, prefix + child.name + ".", module,
                     declared or protocol)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not declared and not any(_named(mark, "abstractmethod")
                                            for mark in child.decorator_list):
                    found.add("%s::%s%s" % (module, prefix, child.name))
                walk(child, prefix + child.name + ".<locals>.", module,
                     declared)
            else:
                walk(child, prefix, module, declared)

    for folder, _, names in os.walk(root):
        for name in names:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as handle:
                    walk(ast.parse(handle.read()), "",
                         os.path.relpath(path, root), False)
    return found


# -- the sources: generators of (name, thunk), importing only when run ---

def claims():
    import bench_claims
    for row in bench_claims.CLAIMS:
        # The bare function: the row's own hook would displace this one.
        run = getattr(bench_claims, row.name[len("claim_"):])
        yield row.name, lambda run=run, row=row: run(**row.smoke)


def arms():
    import run_bench
    for family in run_bench.FAMILIES:
        if family != "claims":
            for name, (workload, _, smoke) in \
                    run_bench._module(family).ARMS.items():
                yield name, lambda workload=workload, smoke=smoke: \
                    workload(**smoke)


def workloads():
    import workloads as suite

    def once(cls):
        workload = cls(1)
        try:
            workload.build()
            workload.warm()
            workload.slice(0, [])
            workload.finish()
        finally:
            workload.close()

    for name, cls in suite.WORKLOADS.items():
        yield name, lambda cls=cls: once(cls)


def udp_parity():
    yield "test_rpc_parity.py -k udp", lambda: pytest.main(
        [os.path.join(TESTS, "test_rpc_parity.py"), "-q", "-k", "udp",
         "-p", "no:cacheprovider"])


def tier1():
    yield "tier-1", lambda: pytest.main(
        [REPO, "-q", "-p", "no:cacheprovider",
         "--ignore", os.path.abspath(__file__)])


SOURCES = (claims, arms, workloads, udp_parity)


def collect(groups):
    """Run every source of ``groups`` under the hook; returns
    ``{module::qualname: the first source to reach it}``."""
    sys.path[:0] = [REPO, BENCHMARKS, os.path.join(BENCHMARKS, "suite")]
    first, current = {}, [None]

    def hook(frame, event, arg):
        if event == "call" and frame.f_code not in first:
            first[frame.f_code] = current[0]

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        for group in groups:
            current[0] = "import by " + group.__name__
            for name, run in group():
                current[0] = name
                run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    prefix = os.path.join(SRC, "")
    reached = {}
    for code, source in first.items():
        if code.co_filename.startswith(prefix):
            reached.setdefault("%s::%s" % (code.co_filename[len(prefix):],
                                           code.co_qualname), source)
    return reached


def collected(*flags):
    """:func:`collect` in a fresh interpreter (``--json``)."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--json", *flags],
        env=dict(os.environ, PYTHONPATH=os.path.dirname(SRC)), cwd=REPO,
        capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


# -- the verdict ----------------------------------------------------------

def verdict(defined, reached, unreached):
    """The ledger's failures, each naming its function."""
    failures = []
    for key in sorted(defined - set(reached) - set(unreached)):
        failures.append("%s: reached by no source, not in UNREACHED" % key)
    for key in sorted(set(reached) & set(unreached)):
        failures.append("%s: in UNREACHED, yet %s reaches it"
                        % (key, reached[key]))
    for key, reason in sorted(unreached.items()):
        if reason not in REASONS:
            failures.append("%s: %r is not a reason" % (key, reason))
        if key not in defined:
            failures.append("%s: in UNREACHED, not defined" % key)
    return failures


@pytest.fixture(scope="module")
def reached():
    return collected()


class TestLedger:
    def test_every_function_is_reached_or_has_a_reason(self, reached):
        assert verdict(universe(), reached, UNREACHED) == []
        assert len(UNREACHED) <= UNREACHED_MAX

    def test_import_time_and_pump_thread_calls_count(self, reached):
        assert reached["__init__.py::_lazy"].startswith("import by ")
        assert reached["errors.py::_register"].startswith("import by ")
        # Only ever a thread's target.
        assert "net/sockets.py::SocketNode._pump_loop" in reached


class TestVerdict:
    """Negative controls: each way a ledger goes wrong fails, named."""

    DEFINED = {"a.py::f", "a.py::C.g", "b.py::h"}
    REACHED = {"a.py::f": "claim_x", "a.py::C.g": "sim_echo"}

    def test_a_sound_ledger_passes(self):
        assert verdict(self.DEFINED, self.REACHED,
                       {"b.py::h": TEST_API}) == []

    def test_a_planted_unreached_def_fails(self):
        failures = verdict(self.DEFINED | {"b.py::planted"}, self.REACHED,
                           {"b.py::h": TEST_API})
        assert failures == [
            "b.py::planted: reached by no source, not in UNREACHED"]

    def test_a_function_both_reached_and_listed_fails(self):
        failures = verdict(self.DEFINED, self.REACHED,
                           {"b.py::h": TEST_API, "a.py::f": TEST_API})
        assert failures == ["a.py::f: in UNREACHED, yet claim_x reaches it"]

    def test_an_unknown_reason_fails(self):
        failures = verdict(self.DEFINED, self.REACHED,
                           {"b.py::h": "on trial"})
        assert failures == ["b.py::h: 'on trial' is not a reason"]


# -- make reach -----------------------------------------------------------

def main(argv):
    if "--json" in argv:
        reached = collect((tier1,) if "--tests" in argv else SOURCES)
        print()
        print(json.dumps(reached, sort_keys=True))
        return 0
    reached = collected()
    for key in sorted(universe() & set(reached)):
        print("%-64s %s" % (key, reached[key]))
    for reason in REASONS:
        print("\nUNREACHED: %s" % reason)
        for key in sorted(key for key, why in UNREACHED.items()
                          if why == reason):
            print("  " + key)
    failures = verdict(universe(), reached, UNREACHED)
    if "--tests" in argv:
        by_tests = collected("--tests")
        failures += ["%s: no test reaches it" % key
                     for key, why in sorted(UNREACHED.items())
                     if why == TEST_API and key not in by_tests]
    for failure in failures:
        print("FAIL: " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
