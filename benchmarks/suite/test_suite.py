"""Tests of the benchmark's own arithmetic and of each simulator
workload's correctness check.  No sockets, no subprocesses."""

import argparse
import gc
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import contract  # noqa: E402
import estimators  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------


def test_self_time_of_nested_and_sibling_spans():
    # root [0,100] has siblings a [10,40] and b [50,90]; b has c [60,70].
    records = [
        [0, "root", 0, 100, -1, 1],
        [1, "a", 10, 40, 0, 1],
        [2, "b", 50, 90, 0, 1],
        [3, "c", 60, 70, 2, 1],
    ]
    own = spans.self_times(records)
    assert own == {0: 100 - 30 - 40, 1: 30, 2: 40 - 10, 3: 10}
    assert sum(own.values()) == 100  # self times tile the root


def test_wrapper_cost_correction():
    # 3 spans of this name with 4 direct children between them: each
    # span carries one inner cost, each child charged one outer cost.
    assert spans.corrected_self_ns(1000, 3, 4, (50, 100)) == 1000 - 150 - 400
    assert spans.corrected_self_ns(1000, 3, 4, (0.0, 0.0)) == 1000


class _FakeClock:
    """Advances ``step`` per read, so every duration is known."""

    def __init__(self, step=10):
        self.now = 0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def test_tracer_accumulates_what_self_times_computes(monkeypatch):
    monkeypatch.setattr(spans, "_now", _FakeClock())
    tracer = spans.Tracer()
    leaf = tracer.wrap(lambda: None, "g:leaf")

    def middle():
        leaf()
        leaf()

    traced_middle = tracer.wrap(middle, "g:middle")
    root = tracer.wrap(lambda: (traced_middle(), leaf()), "g:root")
    root()
    root()
    tracer.fold()
    assert tracer.transactions == 2
    assert tracer.count("g:leaf") == 6
    assert tracer.pair_count("g:middle", "g:leaf") == 4
    assert tracer.pair_count("g:root", "g:leaf") == 2
    records = tracer.dump()["spans"]
    offline = spans.self_times(records)
    by_name = {}
    for record in records:
        by_name[record[1]] = by_name.get(record[1], 0) + offline[record[0]]
    for name, total in by_name.items():
        assert tracer.raw_self_ns[tracer._index[name]] == total
    # parents were reconstructed from completion order and depth
    parents = {r[0]: r[4] for r in records}
    names = {r[0]: r[1] for r in records}
    assert all(names[parents[i]] == "g:middle" or names[parents[i]] == "g:root"
               for i in parents if names[i] == "g:leaf")
    assert {r[5] for r in records} == {1, 2}
    assert sum(tracer.raw_self_ns) == tracer.driver_root_ns


def test_folding_mid_span_and_from_another_thread(monkeypatch):
    import threading

    monkeypatch.setattr(spans, "_now", _FakeClock())
    tracer = spans.Tracer()
    leaf = tracer.wrap(lambda: None, "g:leaf")

    def middle():
        leaf()
        tracer.fold()  # g:middle is open: it must stay on the stack
        leaf()

    traced_middle = tracer.wrap(middle, "g:middle")
    traced_middle()
    assert tracer.count("g:leaf") == 2
    assert tracer.pair_count("g:middle", "g:leaf") == 2
    middle_index = tracer._index["g:middle"]
    # clock reads: middle in, (leaf in, out) twice, middle out -> 10 apart
    assert tracer.raw_self_ns[middle_index] == 50 - 10 - 10
    # another thread's spans are booked, but are no transactions
    worker = threading.Thread(target=leaf)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert tracer.count("g:leaf") == 3
    assert tracer.transactions == 1


def test_wrappers_keep_the_signature_and_the_defaults():
    tracer = spans.Tracer()
    sentinel = object()

    def fn(a, b=2, marker=sentinel):
        return a, b, marker is sentinel

    traced = tracer.wrap(fn, "g:fn", weigh=lambda args: args[0])
    assert traced(1) == (1, 2, True)
    assert traced(5, marker=None, b=3) == (5, 3, False)
    assert tracer.weight[tracer._index["g:fn"]] == 6

    def star(*args, key=None, **rest):
        return args, key, rest

    assert tracer.wrap(star, "g:star")(1, 2, key=3, x=4) == (
        (1, 2), 3, {"x": 4})
    with pytest.raises(TypeError):
        traced()


def test_install_and_uninstall_restore_the_classes():
    from repro.ipc import client, rpc
    from repro.net.message import Message
    from repro.net.nic import Nic

    before = (rpc.trans, client.trans, Nic.__dict__["put_owned"],
              Message.__dict__["unpack"], Nic.__dict__["serve"])
    tracer = spans.Tracer()
    layers.install(tracer, workloads.SimEcho.server_classes)
    try:
        assert rpc.trans is not before[0]
        assert client.trans is rpc.trans  # importers see the wrapper
        assert isinstance(Message.__dict__["unpack"], classmethod)
    finally:
        tracer.uninstall()
    after = (rpc.trans, client.trans, Nic.__dict__["put_owned"],
             Message.__dict__["unpack"], Nic.__dict__["serve"])
    assert after == before


def test_traced_echo_charges_the_layers_that_run_and_no_others():
    tracer = spans.Tracer()
    layers.install(tracer, workloads.SimEcho.server_classes)
    try:
        workload = workloads.SimEcho(seed=5)
        workload.build()
        workload.warm()  # the server's signature image is computed lazily
        tracer.reset()
        workload.slice(0, [])
    finally:
        tracer.uninstall()
    n = workload.slice_transactions
    tracer.fold()
    assert workload.failed == 0
    assert tracer.transactions == n
    assert tracer.count("ipc.rpc:trans") == n
    assert tracer.count("ipc.server:handle") == n
    assert tracer.count("servers.handler") == n
    assert tracer.count("net.network:send") == 2 * n
    for bypassed in ("ipc.client", "ipc.locate", "ipc.replica",
                     "core.registry", "core.schemes", "net.sched",
                     "net.message", "net.sockets", "disk.wal",
                     "disk.virtualdisk"):
        assert tracer.count(bypassed) == 0, bypassed
    metrics = layers.span_metrics(tracer, (0.0, 0.0), n, 1.0,
                                  workload.stats())
    assert metrics["ipc.rpc.calls"] == 1.0
    assert metrics["ipc.rpc.retransmits"] == 0.0
    assert metrics["crypto.oneway.calls"] == 1.0  # the fresh reply port
    # every layer's self time (the three of net.nic included) tiles the
    # transaction
    total = sum(value for name, value in metrics.items()
                if name.endswith("self_us"))
    assert total == pytest.approx(tracer.driver_root_ns / n / 1000.0)


# ----------------------------------------------------------------------
# estimators
# ----------------------------------------------------------------------


def _rounds(cpu_ns, calib_ns, count):
    return [{"cpu_ns": cpu_ns, "p50_ns": cpu_ns, "transactions": 1,
             "calib_cpu_ns": calib_ns, "calib_wall_ns": calib_ns}] * count


def test_the_calibrated_median_ignores_a_slow_stretch():
    ref = float(estimators.CALIB_REF_NS)

    def estimate(rounds):
        metrics = run.time_metrics({"rounds": rounds})
        assert metrics["p50_us"]["value"] == pytest.approx(
            metrics["cpu_us_per_trans"]["value"])
        return metrics["cpu_us_per_trans"]

    # 100 rounds of 20 us work; rounds 30-59 run on a host twice as
    # slow, and their calibration slowed with them.
    rounds = (_rounds(20_000.0, ref, 30) + _rounds(40_000.0, 2 * ref, 30)
              + _rounds(20_000.0, ref, 40))
    assert estimate(rounds)["value"] == pytest.approx(20.0)
    assert estimate(rounds)["raw"] == pytest.approx(20.0)
    assert estimate(rounds)["samples"] == 100
    # Even when calibration misses half of the slow stretch, the normal
    # rounds outvote it.
    rounds[30:45] = _rounds(40_000.0, ref, 15)
    assert estimate(rounds)["value"] == pytest.approx(20.0)
    # When the stretch covers most of the run the raw median follows
    # it and the normalised one does not.
    slow = _rounds(40_000.0, 2 * ref, 70) + _rounds(20_000.0, ref, 30)
    assert estimate(slow)["value"] == pytest.approx(20.0)
    assert estimate(slow)["raw"] == pytest.approx(40.0)


def test_normalise_keeps_units_at_reference_speed():
    ref = estimators.CALIB_REF_NS
    assert estimators.normalise(500.0, ref) == 500.0
    assert estimators.normalise(500.0, ref / 2) == 1000.0


def test_percentile_needs_ten_samples_beyond_it():
    def supported(count):
        rung = estimators.supported_percentile(count)
        return rung and rung[0]

    assert supported(19) is None
    assert supported(20) == 50.0
    assert supported(99) == 50.0
    assert supported(100) == 90.0
    assert supported(999) == 90.0
    assert supported(1000) == 99.0
    assert supported(10_000) == 99.9
    values = list(range(1, 501))
    used, value, count = estimators.tail(values, wanted=99.0)
    assert (used, count) == (90.0, 500)  # 99 would leave 5 beyond
    assert value == 450  # 50 samples beyond it
    used, value, count = estimators.tail(list(range(1, 2001)), wanted=99.0)
    assert (used, value, count) == (99.0, 1980, 2000)
    # 99.9 is supported here, but 99 is what was asked for
    assert estimators.tail(list(range(20_000)), wanted=99.0)[0] == 99.0
    assert estimators.tail([3, 1, 2]) == (50.0, 2, 3)


def test_quartiles_follow_the_drivers_rule():
    import statistics

    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 9.7]
    q1, median, q3 = estimators.quartiles(values)
    expected = statistics.quantiles(values, n=4)
    assert (q1, q3) == (expected[0], expected[2])
    assert median == statistics.median(values)
    assert estimators.spread(values) == pytest.approx((q3 - q1) / median)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def test_verdicts_at_and_around_a_bound():
    # Values and shifts that binary floats hold exactly, so "at the
    # bound" is at the bound; spread well under the bound of 12.5%.
    tight = [128.0, 128.5, 127.5, 128.25, 127.75]
    shifted = lambda by: [v * (1 + by) for v in tight]  # noqa: E731
    assert compare.verdict(tight, shifted(0.125), 0.125) == compare.WITHIN
    assert compare.verdict(tight, shifted(0.126), 0.125) == compare.WORSE
    assert compare.verdict(tight, shifted(0.0625), 0.125) == compare.WITHIN
    assert compare.verdict(tight, shifted(-0.0625), 0.125) == compare.BETTER
    # a move inside A's own spread is not a gain
    assert compare.verdict(tight, shifted(-0.001), 0.125) == compare.WITHIN
    # paired runs: nine wins in ten are needed on top
    assert compare.verdict(tight, shifted(-0.0625), 0.125,
                           wins=0.8) == compare.WITHIN
    assert compare.verdict(tight, shifted(-0.0625), 0.125,
                           wins=0.9) == compare.BETTER


def test_verdict_is_unresolved_when_spread_exceeds_the_bound():
    noisy = [80.0, 90.0, 100.0, 110.0, 120.0]
    assert compare.verdict(noisy, [v * 1.08 for v in noisy],
                           0.10) == compare.UNRESOLVED
    # ... unless every run of B beats every run of A
    assert compare.verdict(noisy, [70.0, 75.0, 72.0],
                           0.10) == compare.BETTER
    assert compare.verdict(noisy, [130.0, 140.0, 135.0],
                           0.10) == compare.WORSE
    # a single run per side borrows the recorded noise
    assert compare.verdict([100.0], [104.0], 0.10,
                           noise=0.20) == compare.UNRESOLVED
    assert compare.verdict([100.0], [104.0], 0.10,
                           noise=0.02) == compare.WITHIN


def test_exact_metrics_admit_no_difference():
    assert compare.is_exact("failed_share", "udp_pipelined16")
    assert compare.is_exact("frames_per_trans", "lossy_failover")
    assert not compare.is_exact("frames_per_trans", "udp_pipelined16")
    assert not compare.is_exact("p50_us", "sim_echo")
    assert compare.verdict([2.0], [2.0], 0) == compare.WITHIN
    assert compare.verdict([2.0], [2.0001], 0) == compare.WORSE
    assert compare.verdict([2.0], [1.9999], 0) == compare.BETTER


def test_smoke_results_are_refused(tmp_path):
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps({"stamp": {"smoke": True}, "runs": []}))
    with pytest.raises(SystemExit):
        compare.load_result(path)


# ----------------------------------------------------------------------
# the contract file and the code agree
# ----------------------------------------------------------------------


def _smoke_args(trace):
    return argparse.Namespace(seed=3, seconds=0.05, smoke=True,
                                  trace=trace)


def test_every_listed_workload_and_metric_is_emitted(tmp_path, monkeypatch):
    assert set(contract.benchmark()) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer"}
    assert contract.names("workloads") == list(workloads.WORKLOADS)
    units = contract.units()
    try:
        untraced = run.run_untraced(workloads.SimEcho, _smoke_args(0))
    finally:
        gc.unfreeze()  # run_untraced freezes, expecting its process to end
    assert untraced["correct"]
    assert set(contract.names("end_to_end")) <= set(untraced["detail"])
    monkeypatch.setattr(run, "HERE", tmp_path)  # where the trace goes
    traced = run.run_traced(workloads.SimEcho, _smoke_args(1))
    assert traced["correct"]
    assert list(traced["detail"]) == contract.names("per_layer")
    for detail in (untraced["detail"], traced["detail"]):
        assert all(entry["unit"] == units[name]
                   for name, entry in detail.items())
    assert (tmp_path / "out" / "trace_sim_echo.json").exists()


def test_the_recorded_noise_passes_its_own_bounds():
    # Two runs of one commit must agree within the bounds, so no bound
    # may sit inside the spread NOISE.json records for its metric.
    bounds = contract.bounds()
    noise = compare.noise_spreads()
    assert {metric for _, metric in noise} >= set(bounds)
    for (workload, metric), spread in noise.items():
        if metric in bounds:
            assert spread <= bounds[metric], (workload, metric)


def test_more_disk_writes_than_recorded_is_incorrect():
    def phase(rounds, writes, completed=15360):
        return {"rounds": [None] * rounds,
                "counted": {"disk_writes": writes, "completed": completed}}

    recorded = 34796  # over the 64 counted rounds, whatever the seed
    assert not run.more_disk_writes("durable_mutate", phase(64, recorded))
    assert run.more_disk_writes("durable_mutate", phase(64, recorded + 1))
    # fewer is a gain
    assert not run.more_disk_writes("durable_mutate", phase(64, recorded - 1))
    # a run too short to reach the counted rounds cannot be compared
    assert not run.more_disk_writes("durable_mutate", phase(63, 2 * recorded))
    # a workload without a store must stay without one
    assert not run.more_disk_writes("sim_echo", phase(64, 0))
    assert run.more_disk_writes("sim_echo", phase(64, 1))


# ----------------------------------------------------------------------
# one round of each simulator workload
# ----------------------------------------------------------------------


def _one_round(workload):
    workload.build()
    try:
        latencies = []
        for index in range(workload.slices_per_round):
            workload.slice(index, latencies)
        workload.finish()
    finally:
        workload.close()
    return latencies


@pytest.mark.parametrize("make", [
    lambda: workloads.SimEcho(seed=11),
    lambda: workloads.SimPipelined16(seed=11),
    lambda: workloads.FileRW(seed=11, files=64),
    lambda: workloads.CapChurn(seed=11, objects=64),
    lambda: workloads.DurableMutate(seed=11),
    lambda: workloads.LossyFailover(seed=11),
], ids=["sim_echo", "sim_pipelined16", "file_rw", "cap_churn",
        "durable_mutate", "lossy_failover"])
def test_a_round_of_each_simulator_workload_is_correct(make):
    workload = make()
    latencies = _one_round(workload)
    assert workload.attempted > 0
    assert workload.failed == 0
    assert latencies and min(latencies) > 0


def test_same_seed_same_counts():
    first, second = workloads.LossyFailover(seed=4), \
        workloads.LossyFailover(seed=4)
    _one_round(first)
    _one_round(second)
    assert first.frames() == second.frames()
    assert first.plan.stats() == second.plan.stats()
    assert first.frames() > 2 * first.attempted  # retransmits happened


def test_cap_churn_counts_a_wrongly_admitted_capability_as_a_failure(
        monkeypatch):
    from repro.core.rights import Rights
    from repro.core.schemes import XorOneWayScheme

    # A scheme that believes any check field: forged and revoked
    # capabilities are now admitted, and each must count as a failure.
    monkeypatch.setattr(
        XorOneWayScheme, "verify",
        lambda self, secret, rights_field, check: Rights(rights_field))
    workload = workloads.CapChurn(seed=11, objects=64)
    workload.build()
    workload.slice(0, [])
    forged = workload.slice_iterations
    revoked = workload.slice_iterations // workload.refresh_every
    assert workload.failed == forged + revoked


def test_durable_mutate_notices_a_lost_directory_entry():
    workload = workloads.DurableMutate(seed=11)
    workload.build()
    for index in range(workload.slices_per_round):
        workload.slice(index, [])
    workload.shadow["never-entered"] = workload.target
    workload.finish()
    assert workload.failed > 0


def test_measure_groups_slices_into_rounds_and_counts_exactly():
    workload = workloads.DurableMutate(seed=11)
    workload.build()
    workload.warm()
    phase = run.measure(workload, seconds=0.0, min_rounds=2)
    per_round = (workload.slices_per_round * workload.slice_iterations * 3)
    assert [r["transactions"] for r in phase["rounds"]] == [per_round] * 2
    assert phase["failed"] == 0
    assert phase["counted"]["completed"] == 2 * per_round
    assert phase["counted"]["frames"] == 2 * phase["counted"]["completed"]
    assert phase["counted"]["disk_writes"] > 0
    metrics = run.time_metrics(phase)
    assert metrics["cpu_us_per_trans"]["samples"] == 2
    assert metrics["p50_us"]["value"] > 0
