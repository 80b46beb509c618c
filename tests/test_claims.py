"""The paper's claims as one asserted table (``benchmarks/bench_claims.py``).

* every row holds at full size and at its CI size — among them the seven
  that used to be ``tests/test_integration_fig1.py``;
* the table read backwards is the module ledger: a module of
  ``src/repro`` that defines a function is executed by some row (derived
  from the run under ``sys.setprofile``, never hand-listed) or is named
  in ``BEYOND_PAPER`` with what runs it instead — never both, never
  neither;
* the committed ``BENCH_invariants.json`` and ``docs/PAPER_MAP.md`` are
  what a full ``run_bench.py`` run writes from these rows;
* the table has teeth: without signature checking the forged-reply row
  fails, and over an F-box whose F is the identity the impersonation row
  fails, each naming its claim (ROADMAP item 4's negative controls).
"""

import ast
import json
import os
import sys

import pytest

import repro
import repro.core.ports
import repro.net.fbox

REPO = os.path.join(os.path.dirname(__file__), os.pardir)
sys.path.insert(0, os.path.join(REPO, "benchmarks"))

import bench_claims  # noqa: E402  (needs benchmarks/ on the path)

pytestmark = pytest.mark.integration

ROWS = {row.name: row for row in bench_claims.CLAIMS}

#: Modules no claim of the paper reaches -> the suite workload
#: (``BENCHMARK.json``) or ``run_bench.py`` arm that runs them instead.
BEYOND_PAPER = {
    "disk/diskfaults.py": "recovery_kill_reboot",
    "disk/wal.py": "durable_mutate",
    "ipc/replica.py": "lossy_failover",
    "net/faults.py": "lossy_failover",
    "net/sched.py": "sim_pipelined16",
    "net/sockets.py": "udp_pipelined16",
    "testing/chaos.py": "chaos_matrix",
    "util/record.py": "durable_mutate",
}


def _committed(*parts):
    with open(os.path.join(REPO, *parts)) as handle:
        return handle.read()


@pytest.fixture(scope="session")
def table():
    """Every row run once at full size: ``(results, executed)``, the
    second a copy of what the rows' profile hooks recorded."""
    results = {name: row.run() for name, row in ROWS.items()}
    return results, dict(bench_claims.EXECUTED)


class TestRows:
    @pytest.mark.parametrize("name", ROWS)
    def test_the_claim_holds_at_full_size(self, table, name):
        assert ROWS[name].check(table[0][name]) == []

    @pytest.mark.parametrize("name", ROWS)
    def test_the_claim_holds_at_ci_size(self, name):
        # the bare function, not ``row.run``: the ledger stays full-size
        run = getattr(bench_claims, name[len("claim_"):])
        assert ROWS[name].check(run(**ROWS[name].smoke)) == []

    def test_the_seven_fig1_tests_are_rows(self):
        assert {"claim_intruder_present", "claim_impersonation_campaign",
                "claim_forged_replies", "claim_stolen_then_revoked",
                "claim_server_restrict", "claim_client_restrict",
                "claim_exact_copy"} <= set(ROWS)

    def test_a_row_is_counts_and_verdicts_never_a_timing(self, table):
        def leaves(value):
            if isinstance(value, (list, tuple)):
                for inner in value:
                    yield from leaves(inner)
            else:
                yield value

        for name, result in table[0].items():
            for key, pair in result.items():
                assert len(pair) == 2, (name, key)
                assert all(isinstance(leaf, (int, str, bool))
                           for leaf in leaves(pair)), (name, key, pair)


class TestReadBackwards:
    def _modules(self):
        """Every module under ``src/repro`` -> does it define a function."""
        root = os.path.dirname(repro.__file__)
        found = {}
        for folder, _, names in os.walk(root):
            for name in names:
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    with open(path) as handle:
                        tree = ast.parse(handle.read())
                    found[os.path.relpath(path, root)] = any(
                        isinstance(node, ast.FunctionDef)
                        for node in ast.walk(tree))
        return found

    def test_every_module_is_reached_by_a_row_or_is_beyond_the_paper(
            self, table):
        modules = self._modules()
        reached = set().union(*table[1].values())
        defining = {module for module, defines in modules.items() if defines}
        assert reached <= defining
        assert reached & set(BEYOND_PAPER) == set(), "in both"
        assert defining - reached - set(BEYOND_PAPER) == set(), "on trial"
        assert set(BEYOND_PAPER) <= defining
        # Exempt: the packages' __init__ files and one module of constants.
        assert {module for module in set(modules) - defining
                if not module.endswith("__init__.py")} == {"ipc/stdops.py"}

    def test_what_is_beyond_the_paper_names_a_real_workload_or_arm(self):
        workloads = {entry["name"] for entry in json.loads(
            _committed("BENCHMARK.json"))["workloads"]}
        arms = set(json.loads(_committed("BENCH_invariants.json")))
        assert set(BEYOND_PAPER.values()) <= workloads | arms

    def test_the_four_new_rows_reach_their_modules(self, table):
        for module, name in (
                ("kernel/process.py", "claim_process_lifecycle"),
                ("servers/sweeper.py", "claim_touch_and_age"),
                ("servers/unixfs.py", "claim_unix_facade"),
                ("softprot/linkcrypt.py", "claim_link_encrypted_tap")):
            assert module in table[1][name]


class TestCommittedRecords:
    def test_the_invariants_file_holds_these_rows(self, table):
        recorded = json.loads(_committed("BENCH_invariants.json"))
        for name, result in table[0].items():
            assert recorded[name] == json.loads(json.dumps(result)), name

    def test_paper_map_is_the_render(self, table, monkeypatch):
        monkeypatch.setattr(bench_claims, "EXECUTED", table[1])
        assert _committed("docs", "PAPER_MAP.md") == (
            bench_claims.paper_map(table[0]))


class TestNegativeControls:
    def test_without_signature_checking_the_forged_reply_row_fails(self):
        result = bench_claims.forged_replies(signed=False)
        failures = ROWS["claim_forged_replies"].check(result)
        assert result["forged_accepted"][0] > 0
        assert any("forged_accepted" in failure and "it lacks F(S)" in failure
                   for failure in failures), failures

    def test_over_an_identity_f_the_impersonation_row_fails(self, monkeypatch):
        def identity():
            return lambda value: value

        # P = F(G) = G: a GET on the put-port now listens on the server's
        # own wire port, and the network shares the frames out.
        monkeypatch.setattr(repro.core.ports, "default_oneway", identity)
        monkeypatch.setattr(repro.net.fbox, "default_oneway", identity)
        result = bench_claims.impersonation_campaign()
        failures = ROWS["claim_impersonation_campaign"].check(result)
        assert result["intercepted"][0] > 0
        assert any("intercepted is" in failure
                   and "never impersonates the server" in failure
                   for failure in failures), failures
