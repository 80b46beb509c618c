"""The harness itself (``benchmarks/run_bench.py``), without running it.

* the ``bench_history/v2`` row distilled from a ``suite/run.py --out``
  file says where the numbers came from and carries every end-to-end
  median; a smoke result, or a wrong one, gets no row;
* every surviving arm's ``check()`` passes the committed
  ``BENCH_invariants.json`` and turns a planted bad result into a
  failure that names what broke;
* only a full, passing run of every family writes the invariants file
  (and ``docs/PAPER_MAP.md`` beside it), and nothing that varies run to
  run goes into it.
"""

import copy
import importlib.util
import json
import os
import types

import pytest

REPO = os.path.join(os.path.dirname(__file__), os.pardir)


def _load_run_bench():
    path = os.path.join(REPO, "benchmarks", "run_bench.py")
    spec = importlib.util.spec_from_file_location("run_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run_bench = _load_run_bench()


def _json(*parts):
    with open(os.path.join(REPO, *parts)) as handle:
        return json.load(handle)


@pytest.fixture
def suite_result():
    """A real ``suite/run.py --out`` file: six full runs, stamped."""
    return _json("benchmarks", "suite", "NOISE.json")


class TestHistoryRow:
    def test_row_is_stamped_and_carries_all_35_medians(self, suite_result):
        row = run_bench.history_row(suite_result)
        stamp = suite_result["stamp"]
        assert row["schema"] == "bench_history/v2"
        for key in ("git_sha", "git_dirty", "calibration_ns", "nproc",
                    "seed", "seconds"):
            assert row[key] == stamp[key]
        assert len(row["git_sha"]) == 40 and row["calibration_ns"] > 0
        contract = _json("BENCHMARK.json")
        workloads = [w["name"] for w in contract["workloads"]]
        metrics = [m["name"] for m in contract["end_to_end"]]
        assert list(row["medians"]) == workloads and len(workloads) == 7
        values = [row["medians"][w][m] for w in workloads for m in metrics]
        assert len(values) == 35
        assert all(isinstance(v, float) and v >= 0 for v in values)
        # The median over the file's six runs, not any one of them.
        echo = sorted(run["sim_echo"]["end_to_end"]["cpu_us_per_trans"]["value"]
                      for run in suite_result["runs"])
        assert row["medians"]["sim_echo"]["cpu_us_per_trans"] == (
            echo[2] + echo[3]) / 2
        json.dumps(row)  # one line of BENCH_history.jsonl

    def test_a_smoke_result_is_refused(self, suite_result):
        suite_result["stamp"]["smoke"] = True
        with pytest.raises(ValueError, match="smoke"):
            run_bench.history_row(suite_result)

    def test_wrong_outputs_and_missing_numbers_are_refused(self, suite_result):
        broken = copy.deepcopy(suite_result)
        broken["runs"][0]["file_rw"]["correct"] = False
        with pytest.raises(ValueError, match="file_rw"):
            run_bench.history_row(broken)
        for run in suite_result["runs"]:
            del run["udp_pipelined16"]
        with pytest.raises(ValueError, match="udp_pipelined16"):
            run_bench.history_row(suite_result)

    def test_append_adds_exactly_one_line(self, suite_result, tmp_path):
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps(suite_result))
        history = tmp_path / "history.jsonl"
        history.write_text('{"schema": "bench_throughput/v1"}\n')
        run_bench.append_history(str(suite_path), str(history))
        lines = history.read_text().splitlines()
        assert len(lines) == 2 and json.loads(lines[0])["schema"].endswith("v1")
        assert json.loads(lines[1])["git_sha"] == (
            suite_result["stamp"]["git_sha"])

    def test_the_committed_v1_rows_are_kept_and_marked(self):
        with open(os.path.join(REPO, "BENCH_history.jsonl")) as handle:
            rows = [json.loads(line) for line in handle]
        v1 = [row for row in rows if row["schema"] == "bench_throughput/v1"]
        assert len(v1) == 13
        assert all(row["calibrated"] is False for row in v1)
        for row in rows[13:]:
            assert row["schema"] == "bench_history/v2" and row["git_sha"]


def _set(path, value):
    """A mutation: ``result[path[0]][path[1]]... = value``."""
    def plant(result):
        for key in path[:-1]:
            result = result[key]
        result[path[-1]] = value
    return plant


#: arm -> [(what to plant in a good result, what the failure must say)].
PLANTED = {
    "des_amortization": [
        (_set(("pipelined", "deterministic"), False),
         "pipelined: identically-seeded reruns diverged"),
        (_set(("vs_serial_x",), 7.9), "7.90x below the 8x bar"),
    ],
    "des_retention": [
        (_set(("image_entries_max",), 1025), "1025 F-box images, over"),
        (_set(("transactions_each",), 1024), "never fill a cache of 1024"),
        (_set(("stray_listeners",), 2), "2 stray_listeners left behind"),
        (_set(("index_entries_in_flight_max",), 21),
         "held 21 entries mid-transaction, not the 20 served"),
    ],
    "flood_drop_vs_backpressure": [
        (_set(("drop", "dropped_overflow"), 0), "dropped nothing"),
        (_set(("drop", "peak_depth"), 300), "exceeded its 256 bound"),
        (_set(("backpressure", "dropped_overflow"), 1),
         "unbounded queue dropped"),
        (_set(("drop", "served_after_flood"), 15), "served 15 of 16"),
    ],
    "fault_goodput_sweep": [
        (_set(("points", 2, "vs_lossless"), 0.49), "goodput at 10% loss"),
    ],
    "fault_des_lossy": [
        (_set(("deterministic",), False), "double run diverged"),
    ],
    "fault_retry_storm": [
        (_set(("completed",), 319), "lost 1 transactions"),
        (_set(("dropped_overflow",), 0), "not a storm"),
    ],
    "fault_crash_recovery": [
        (_set(("recovered",), False), "crash recovery failed"),
    ],
    "fault_bank_effectively_once": [
        (_set(("exactly_once",), False), "double-executed"),
    ],
    "recovery_time_vs_size": [
        (_set(("points", 1, "entries_restored"), 1023),
         "recovered 1023 of 1024"),
    ],
    "recovery_kill_reboot": [
        (_set(("recovered",), False), "kill-and-reboot failed"),
        (_set(("deterministic",), False), "double run diverged"),
    ],
    "replica_kill_failover": [
        (_set(("double_executions",), 1), "double-executed 1 transactions"),
        (_set(("completed",), 95), "only 95/96"),
        (_set(("clients_still_mapping_the_dead",), 1),
         "still map the port to the killed replica"),
        (_set(("survivors_cached",), [2, 3, 3, 3]),
         "dropped a surviving member"),
        (_set(("storm_errors",), ["client 0: RPCTimeout()"]), "client 0"),
    ],
    "replica_sim_flood": [
        (_set(("dropped_overflow",), 0), "never hit the queue bound"),
    ],
    "chaos_matrix": [
        (_set(("violations",), ["delegation_chain@61: conservation"]),
         "invariant violation: delegation_chain@61"),
        (_set(("nondeterministic",), ["delegation_chain@61"]),
         "double run diverged: delegation_chain@61"),
        (_set(("digest_mismatches",), ["x@1: trace entry 2 is now ..."]),
         "digest mismatch: x@1"),
        (_set(("scenarios",), 19), "only 19 scenarios"),
    ],
    "chaos_partition_disciplines": [
        (_set(("des", "cut_timed_out"), False),
         "partition primitive broken on des"),
        (_set(("deferred", "partition_drops"), 0),
         "no partition drops counted on deferred"),
    ],
    # The claim rows hold (observed, claimed) pairs: plant the observed.
    "claim_intruder_present": [
        (_set(("intercepted", 0), 3), "intercepted is 3, not 0"),
        (_set(("completed", 0), 199), "completed is 199, not 200"),
    ],
    "claim_impersonation_campaign": [
        (_set(("intercepted", 0), 1), "never impersonates the server"),
    ],
    "claim_forged_replies": [
        (_set(("forged_accepted", 0), 100), "forged_accepted is 100, not 0"),
    ],
    "claim_stolen_then_revoked": [
        (_set(("thief_served_after_refresh", 0), 1),
         "thief_served_after_refresh is 1, not 0"),
    ],
    "claim_fig2_layout": [
        (_set(("guesses_refused", 0), 99_999),
         "guesses_refused is 99999, not 100000"),
        (_set(("packed_bits", 0), 136), "packed_bits is 136, not 128"),
    ],
    "claim_scheme_tampers": [
        (_set(("xor-oneway_tampers_rejected", 0), 254),
         "xor-oneway_tampers_rejected is 254, not 255"),
    ],
    "claim_server_restrict": [
        (_set(("encrypted_frames", 0), 4), "encrypted_frames is 4, not 2"),
        (_set(("simple_frames", 0), 2),
         "simple_frames is 2, not 'unsupported'"),
    ],
    "claim_client_restrict": [
        (_set(("frames", 0), 2), "frames is 2, not 0"),
    ],
    "claim_exact_copy": [
        (_set(("copies_served", 0), 3), "copies_served is 3, not 4"),
    ],
    "claim_revocation": [
        (_set(("killed_of_10000_outstanding", 0), 9_999),
         "killed_of_10000_outstanding is 9999, not 10000"),
        (_set(("table_rows_for_100_outstanding", 0), 101),
         "table_rows_for_100_outstanding is 101, not 1"),
    ],
    "claim_matrix_replay_and_cache": [
        (_set(("wrong_source_replays_validated", 0), 1),
         "wrong_source_replays_validated is 1, not 0"),
        (_set(("warm_seal_cipher_ops", 0), 1),
         "warm_seal_cipher_ops is 1, not 0"),
    ],
    "claim_boot_handshake": [
        (_set(("old_boot_replays_refused", 0), 19),
         "old_boot_replays_refused is 19, not 20"),
        (_set(("impostor_refused", 0), 0), "impostor_refused is 0, not 1"),
    ],
    "claim_link_encrypted_tap": [
        (_set(("tapped_frames_showing_capability_bytes", 0), 1),
         "a wiretap sees no capability bytes"),
    ],
    "claim_locate_frames": [
        (_set(("cached_locate_frames", 0), 2000),
         "cached_locate_frames is 2000, not 0"),
    ],
    "claim_process_lifecycle": [
        (_set(("observer_controls_refused", 0), 1),
         "observer_controls_refused is 1, not 2"),
        (_set(("objects_on_parent_machine", 0), 4),
         "objects_on_parent_machine is 4, not 0"),
    ],
    "claim_modular_file_stack": [
        (_set(("on_blocks_8k_write_frames", 0), 2),
         "on_blocks_8k_write_frames is 2, not 66"),
        (_set(("branch_32_pages_copied", 0), 32),
         "branch_32_pages_copied is 32, not 0"),
    ],
    "claim_touch_and_age": [
        (_set(("collected", 0), 3), "collected is 3, not 2"),
    ],
    "claim_unix_facade": [
        (_set(("requests_to_anything_else", 0), 1),
         "requests_to_anything_else is 1, not 0"),
    ],
    "claim_bank_economy": [
        (_set(("refused_writes_that_moved_money", 0), 1),
         "refused_writes_that_moved_money is 1, not 0"),
        (_set(("usd_in_circulation", 0), 9_997),
         "usd_in_circulation is 9997, not 10000"),
        (_set(("refunds_paid_by_sweeps", 0), 2),
         "refunds_paid_by_sweeps is 2, not 1"),
    ],
}


def _arms():
    arms = {}
    for family in run_bench.FAMILIES:
        arms.update(run_bench._module(family).ARMS)
    return arms


class TestChecks:
    def test_every_arm_is_covered_and_recorded(self):
        recorded = _json("BENCH_invariants.json")
        assert set(_arms()) == set(PLANTED) == set(recorded)

    @pytest.mark.parametrize("arm", sorted(PLANTED))
    def test_check_names_what_is_planted(self, arm):
        _, check, _ = _arms()[arm]
        good = _json("BENCH_invariants.json")[arm]
        assert check(good) == []
        for plant, says in PLANTED[arm]:
            bad = copy.deepcopy(good)
            plant(bad)
            failures = check(bad)
            assert any(says in failure for failure in failures), (
                arm, says, failures)

    def test_the_record_holds_no_clock_and_no_host(self):
        def keys(value):
            if isinstance(value, dict):
                for key, inner in value.items():
                    yield key
                    yield from keys(inner)
            elif isinstance(value, list):
                for inner in value:
                    yield from keys(inner)

        # "virtual_seconds" is simulated time: the same on every host.
        for key in keys(_json("BENCH_invariants.json")):
            assert "per_sec" not in key and key != "seconds", key
            assert not key.startswith(("us_", "wall", "ts")), key
            assert key not in ("python", "nproc", "git_sha"), key


class TestMain:
    @pytest.fixture
    def stubbed(self, monkeypatch, tmp_path):
        """Every family is one instant arm; arm ``des`` is bad on
        request.  Returns (path the invariants would go to, switch)."""
        switch = {"bad": False, "calls": []}

        def module(family):
            def workload(size="full"):
                switch["calls"].append((family, size))
                return {"size": size, "deterministic": True}

            def check(result):
                if family == "des" and switch["bad"]:
                    return ["double run diverged"]
                return []

            return types.SimpleNamespace(
                ARMS={family + "_arm": (workload, check, {"size": "smoke"})},
                paper_map=lambda results: "%d rows\n" % len(results))

        target = tmp_path / "BENCH_invariants.json"
        monkeypatch.setattr(run_bench, "_module", module)
        monkeypatch.setattr(run_bench, "INVARIANTS", str(target))
        monkeypatch.setattr(run_bench, "PAPER_MAP", str(tmp_path / "MAP.md"))
        return target, switch

    def test_a_full_run_writes_the_same_bytes_twice(self, stubbed):
        target, switch = stubbed
        assert run_bench.main([]) == 0
        first = target.read_bytes()
        assert run_bench.main([]) == 0
        assert target.read_bytes() == first
        assert set(json.loads(first)) == {
            family + "_arm" for family in run_bench.FAMILIES}
        assert {size for _, size in switch["calls"]} == {"full"}
        assert (target.parent / "MAP.md").read_text() == "7 rows\n"

    def test_smoke_and_partial_runs_write_nothing(self, stubbed):
        target, switch = stubbed
        assert run_bench.main(["--smoke"]) == 0
        assert run_bench.main(["--only", "des,chaos"]) == 0
        assert not target.exists() and not (target.parent / "MAP.md").exists()
        assert switch["calls"][:7] == [
            (family, "smoke") for family in run_bench.FAMILIES]
        assert switch["calls"][7:] == [("des", "full"), ("chaos", "full")]

    def test_a_failed_check_fails_the_run_by_name(self, stubbed, capsys):
        target, switch = stubbed
        switch["bad"] = True
        assert run_bench.main([]) == 1
        assert not target.exists()
        assert "FAIL: des_arm: double run diverged" in capsys.readouterr().out

    def test_an_unknown_family_is_an_error(self, stubbed):
        with pytest.raises(SystemExit):
            run_bench.main(["--only", "throughput"])
