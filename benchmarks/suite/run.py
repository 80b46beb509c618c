"""The benchmark's one command.

``python3 benchmarks/suite/run.py --seed N`` runs the seven workloads,
each in a fresh subprocess, checks their outputs, prints every metric by
name with unit, median, quartiles and sample count, runs the traced pass
for the per-layer numbers and writes a stamped result file that
``compare.py`` reads.

``--workload NAME --seed N --seconds S --trace 0|1`` runs one workload in
this process and prints one JSON object as the last line of standard
output: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.

The measurement protocol is fixed here and is the same on every commit:
closed loop, one client thread; set-up is build plus a fixed count of
warm-up transactions, then ``gc.freeze()``; the measured phase is cut
into rounds of a fixed transaction count with the calibration loop run
between slices; a time metric is the median over rounds of the round's
value divided by the mean of its adjacent calibration times, times
``CALIB_REF_NS``.
"""

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import contract
import estimators
import spans

HERE = Path(__file__).resolve().parent
ROOT = contract.ROOT

#: Set-ups per contract run; ``setup_s`` is their median.
SETUPS = 9
#: Count metrics (frames, disk writes per transaction) and peak memory
#: are taken when this many rounds are done: a fixed amount of seeded
#: work, so they do not depend on how many rounds the host manages in
#: the time (reply caches and image memos grow with every transaction;
#: read at exit, a faster program would look like a bigger one).  Every
#: workload gets here in well under half of a 12 s run; a run that does
#: not reads them at its end instead.
COUNT_ROUNDS = 64
#: The share of a traced run spent on its untraced baseline; the rest
#: is the traced phase the metrics come from.
BASELINE_SHARE = 0.4
#: A wrapper inside the program costs about twice what it costs around
#: a no-op in a loop (0.5-0.65 us against 0.3).  When the difference
#: between the traced and the untraced phase prices it at more than
#: this many times the no-op cost, the host changed speed between the
#: phases (udp_pipelined16 has read 4.8 us that way) and the cap is
#: charged instead.
SPAN_COST_CAP = 4


def _import_suite(src):
    """Put the program under test on the path; exit non-zero, printing
    no result, when it is not there."""
    sys.path.insert(0, str(src))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print("run.py: cannot import the program under test from %s: %s"
              % (src, exc), file=sys.stderr)
        raise SystemExit(2)


def calibrate_pair():
    """One calibration loop timed on both clocks: ``(wall ns, cpu ns)``."""
    cpu = time.process_time_ns()
    wall = estimators.calibrate()
    return wall, time.process_time_ns() - cpu


def set_up(cls, seed, traced=False):
    """Build and warm one world; returns ``(workload, wall ns, calib
    wall ns)`` with the calibration taken on both sides of the set-up."""
    before = calibrate_pair()[0]
    start = time.perf_counter_ns()
    workload = cls(seed)
    workload.traced = traced
    try:
        workload.build()
        workload.warm()
    except BaseException:
        workload.close()
        raise
    elapsed = time.perf_counter_ns() - start
    after = calibrate_pair()[0]
    return workload, elapsed, (before + after) / 2.0


def measure(workload, seconds, min_rounds=3, between=None):
    """Drive ``workload`` for ``seconds``; returns the phase record.

    A round is ``slices_per_round`` slices, each followed by one
    calibration; the round's calibration is the mean of those and the
    one before its first slice.  ``between`` is called after every
    slice, outside the timed region (the tracer folds its logs there).
    """
    rounds = []
    slices = workload.slices_per_round
    attempted0, failed0 = workload.attempted, workload.failed
    frames0, writes0 = workload.frames(), workload.disk_writes()
    counted = None
    slice_wall = 0

    def counts():
        completed = (workload.attempted - attempted0
                     - (workload.failed - failed0))
        return {"completed": completed,
                "frames": workload.frames() - frames0,
                "disk_writes": workload.disk_writes() - writes0,
                "peak_rss_kb": workload.peak_rss_kb()}

    last = calibrate_pair()
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        latencies = []
        calibs = [last]
        done0 = workload.attempted - workload.failed
        cpu = wall = 0
        for index in range(slices):
            cpu0 = workload.cpu_ns()
            wall0 = time.perf_counter_ns()
            workload.slice(index, latencies)
            wall += time.perf_counter_ns() - wall0
            cpu += workload.cpu_ns() - cpu0
            if between is not None:
                between()
            last = calibrate_pair()
            calibs.append(last)
        done = workload.attempted - workload.failed - done0
        slice_wall += wall
        if workload.failed - failed0 > 1000:
            break  # broken beyond measuring; report what there is
        if done <= 0 or not latencies:
            continue  # nothing completed: counted in failed, not timed
        rounds.append({
            "transactions": done,
            "cpu_ns": cpu / done,
            "wall_ns": wall / done,
            "p50_ns": statistics.median(latencies),
            "calib_wall_ns": statistics.fmean(c[0] for c in calibs),
            "calib_cpu_ns": statistics.fmean(c[1] for c in calibs),
        })
        if len(rounds) == COUNT_ROUNDS:
            counted = counts()
    if not rounds:
        raise RuntimeError("%s completed no round" % workload.name)
    attempted = workload.attempted - attempted0
    failed = workload.failed - failed0
    return {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "completed": attempted - failed,
        "counted": counted or counts(),
        "slice_wall_ns": slice_wall,
    }


def _summary(values, raw=None):
    q1, median, q3 = estimators.quartiles(values)
    out = {"value": median, "q1": q1, "q3": q3, "samples": len(values)}
    if raw is not None:
        out["raw"] = statistics.median(raw)
    return out


def _with_units(detail):
    """``detail`` with each metric's unit beside it, as BENCHMARK.json
    gives it."""
    units = contract.units()
    return {name: dict(entry, unit=units[name])
            for name, entry in detail.items()}


def _metric_line(name, entry):
    """One metric for a person: name, value, unit and, where it has
    them, quartiles, sample count and the raw (unnormalised) median."""
    line = "%-44s %14.4f %-6s" % (name, entry["value"], entry["unit"])
    if "q1" in entry:
        line += "  q1 %.4f  q3 %.4f  n=%d" % (
            entry["q1"], entry["q3"], entry["samples"])
    if "raw" in entry:
        line += "  raw %.4f" % entry["raw"]
    return line


def time_metrics(phase):
    """``cpu_us_per_trans`` and ``p50_us`` of a phase, normalised per
    round, with quartiles over rounds."""
    rounds = phase["rounds"]
    cpu = [estimators.normalise(r["cpu_ns"], r["calib_cpu_ns"]) / 1000.0
           for r in rounds]
    # A round's median latency has no preempted transaction in it, so
    # it goes with the calibration's CPU time, which has no preemption
    # in it either (measured on cap_churn: run-to-run spread 4.9%
    # against 6.5% with the calibration's wall time).
    p50 = [estimators.normalise(r["p50_ns"], r["calib_cpu_ns"]) / 1000.0
           for r in rounds]
    return {
        "cpu_us_per_trans": _summary(
            cpu, raw=[r["cpu_ns"] / 1000.0 for r in rounds]),
        "p50_us": _summary(
            p50, raw=[r["p50_ns"] / 1000.0 for r in rounds]),
    }


def more_disk_writes(name, phase):
    """Whether ``phase`` wrote more blocks per transaction than
    NOISE.json records for the workload.

    The count repeats exactly and does not depend on the seed, and its
    healthy value is zero on six workloads, so the driver's contract
    cannot hold it as a bounded metric: a run that writes more reports
    itself incorrect instead.  Fewer writes are a gain and pass.  Only
    a count taken over the fixed ``COUNT_ROUNDS`` can be compared.
    """
    if len(phase["rounds"]) < COUNT_ROUNDS:
        return False
    with open(HERE / "NOISE.json") as handle:
        recorded = json.load(handle)["runs"][0][name]["end_to_end"][
            "disk_writes_per_trans"]["value"]
    counted = phase["counted"]
    writes = counted["disk_writes"] / max(1, counted["completed"])
    if writes > recorded:
        print("run.py: %s wrote %.6f blocks per transaction; NOISE.json "
              "records %.6f" % (name, writes, recorded), file=sys.stderr)
    return writes > recorded


def run_untraced(cls, args):
    """The end-to-end pass of one workload."""
    for _ in range(20):
        estimators.calibrate()  # let the loop itself warm up
    setups = []
    workload = None
    for _ in range(1 if args.smoke else SETUPS):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        workload, elapsed, calib = set_up(cls, args.seed)
        setups.append((elapsed, calib))
    try:
        gc.collect()
        gc.freeze()
        phase = measure(workload, args.seconds,
                        min_rounds=1 if args.smoke else 3)
        before_finish = workload.failed
        workload.finish()
        phase["failed"] += workload.failed - before_finish
    finally:
        workload.close()
    counted = phase["counted"]
    detail = time_metrics(phase)
    detail["setup_s"] = _summary(
        [estimators.normalise(e, c) / 1e9 for e, c in setups],
        raw=[e / 1e9 for e, _ in setups])
    detail["frames_per_trans"] = {
        "value": counted["frames"] / max(1, counted["completed"])}
    detail["peak_rss_mb"] = {"value": counted["peak_rss_kb"] / 1024.0}
    detail["failed_share"] = {
        "value": phase["failed"] / max(1, phase["attempted"])}
    detail["disk_writes_per_trans"] = {
        "value": counted["disk_writes"] / max(1, counted["completed"])}
    calib = [r["calib_wall_ns"] for r in phase["rounds"]]
    return {
        "correct": (phase["failed"] == 0
                    and not more_disk_writes(cls.name, phase)),
        "attempted": max(1, phase["attempted"]),
        "failed": phase["failed"],
        "detail": _with_units(detail),
        "calibration_ns": statistics.median(calib),
        "rounds": len(phase["rounds"]),
    }


def _traced_phase(cls, args, seconds):
    """Build a world with every span point wrapped and measure it;
    returns ``(tracer, phase, the layers' public counters)``."""
    import layers

    tracer = spans.Tracer()
    layers.install(tracer, cls.server_classes)
    workload = None
    try:
        workload, _, _ = set_up(cls, args.seed, traced=True)
        tracer.reset()
        is_udp = hasattr(workload, "server_spans")
        if is_udp:
            workload.reset_server_spans()
            server_cpu0 = workload.server_stats()["cpu_ns"]
        before = workload.stats()

        def fold():
            tracer.fold()
            if is_udp:
                workload.fold_server_spans()

        phase = measure(workload, seconds, 1 if args.smoke else 3, fold)
        # Counters run from the building of the world; the phase's share
        # is the difference.  A high-water mark has no difference.
        stats = {key: value if key == "sched_max_depth"
                 else value - before[key]
                 for key, value in workload.stats().items()}
        stats["disk_writes_per_trans"] = (
            phase["counted"]["disk_writes"]
            / max(1, phase["counted"]["completed"]))
        if is_udp:
            stats["server_cpu_ns"] = (
                workload.server_stats()["cpu_ns"] - server_cpu0)
            tracer.merge(
                workload.server_spans(),
                rename=lambda name: name.replace(
                    "net.sockets:", "net.sockets.server:"))
    finally:
        if workload is not None:
            workload.close()
        tracer.uninstall()
    return tracer, phase, stats


def run_traced(cls, args):
    """The per-layer pass: an untraced baseline, the direct-drive
    leaves, then the workload with every span point wrapped."""
    import layers

    plain = args.seconds * BASELINE_SHARE
    workload, _, _ = set_up(cls, args.seed)
    try:
        baseline = measure(workload, plain, 1 if args.smoke else 3)
        # The end-of-run check and the serial probe run here only:
        # under the tracer their transactions would be counted as the
        # workload's.
        before_finish = workload.failed
        workload.finish()
        check_failed = (baseline["failed"] + workload.failed
                        - before_finish)
        serial = None
        if hasattr(workload, "serial_rtt_ns"):
            probe_calib = calibrate_pair()[0]
            serial = estimators.normalise(
                statistics.median(workload.serial_rtt_ns()),
                (probe_calib + calibrate_pair()[0]) / 2.0)
    finally:
        workload.close()
    untraced = time_metrics(baseline)["cpu_us_per_trans"]["value"]
    leaves = layers.direct_drive(args.seed)

    tracer, phase, stats = _traced_phase(cls, args, args.seconds - plain)
    completed = max(1, phase["completed"])
    # From a raw nanosecond of this phase to one at reference speed.
    # Span times are totals over the phase; the factor maps the phase's
    # mean wall time per transaction onto the median over rounds of the
    # normalised one, so that the layers are on the scale of the
    # end-to-end metrics (a mean feels every preempted slice, and one
    # preempted calibration).
    scale = statistics.median(
        estimators.normalise(r["wall_ns"], r["calib_wall_ns"])
        for r in phase["rounds"]) / (phase["slice_wall_ns"] / completed)
    calib = statistics.median(r["calib_wall_ns"] for r in phase["rounds"])
    traced_cpu = time_metrics(phase)["cpu_us_per_trans"]["value"]
    # One wrapper's price: what tracing added to a transaction's CPU
    # time, spread over the spans of a transaction.
    inner, outer = spans.measure_span_cost()
    span_cost_us = min(
        max(0.0, traced_cpu - untraced) * completed
        / max(1, tracer.span_count()),
        SPAN_COST_CAP * (inner + outer) * scale / 1000.0)
    cost_ns = span_cost_us * 1000.0 / scale  # as measured, not rescaled
    cost = (cost_ns * inner / (inner + outer),
            cost_ns * outer / (inner + outer))

    metrics = layers.span_metrics(tracer, cost, completed, scale, stats)
    metrics.update(leaves)
    metrics["net.sockets.serial_rtt_p50_us"] = (
        serial / 1000.0 if serial else 0.0)
    metrics["harness.self_us"] = max(0.0, (
        phase["slice_wall_ns"] - tracer.driver_root_ns
        - tracer.transactions * cost[1]
    ) * scale / completed / 1000.0)
    failed = phase["failed"] + check_failed
    metrics["failed_share"] = failed / max(1, phase["attempted"])
    metrics["trace.span_cost_us"] = span_cost_us
    metrics["trace.overhead_x"] = traced_cpu / untraced
    # Wall time inside spans, less the wrappers, over untraced CPU time:
    # 1 where a transaction only computes, more where it also waits
    # (a retransmit timer, another process).
    metrics["trace.sum_over_untraced"] = (
        tracer.self_ns("", cost) * scale / completed / 1000.0
        + metrics["harness.self_us"]) / untraced

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    dump = tracer.dump()
    dump["workload"] = cls.name
    dump["seed"] = args.seed
    dump["span_cost_ns"] = {"inner": cost[0], "outer": cost[1]}
    dump["metrics"] = metrics
    with open(out_dir / ("trace_%s.json" % cls.name), "w") as handle:
        json.dump(dump, handle)
    return {
        "correct": failed == 0,
        "attempted": max(1, phase["attempted"]),
        "failed": failed,
        "detail": _with_units({name: {"value": metrics[name]}
                               for name in contract.names("per_layer")}),
        "calibration_ns": calib,
        "rounds": len(phase["rounds"]),
    }


def run_one(args):
    """Contract mode: one workload, one JSON object on the last line."""
    _import_suite(args.src)
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print("run.py: no workload %r; there are %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    result = run_traced(cls, args) if args.trace else run_untraced(cls, args)
    detail = result["detail"]
    wanted = contract.names("per_layer" if args.trace else "end_to_end")
    for name, entry in detail.items():
        print(_metric_line(name, entry))
    print("calibration %.0f ns over %d rounds (reference %d ns)" % (
        result["calibration_ns"], result["rounds"],
        estimators.CALIB_REF_NS))
    if args.detail:
        with open(args.detail, "w") as handle:
            json.dump(result, handle)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": detail[name]["value"],
                           "unit": detail[name]["unit"]} for name in wanted},
    }))
    return 0


# ----------------------------------------------------------------------
# the whole suite
# ----------------------------------------------------------------------


def _git(*command):
    try:
        done = subprocess.run(("git", "-C", str(ROOT)) + command,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(args, calibration_ns):
    """What a result file must say about where it came from."""
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "calibration_ns": calibration_ns,
        "calib_ref_ns": estimators.CALIB_REF_NS,
        "smoke": bool(args.smoke),
        "src": str(args.src),
    }


def _child(args, workload, trace, seconds, detail_path):
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(seconds),
        "--trace", str(trace), "--src", str(args.src),
        "--detail", str(detail_path),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=180)
    if done.returncode != 0:
        raise RuntimeError("%s (trace %d) exited %d:\n%s" % (
            workload, trace, done.returncode, done.stderr[-2000:]))
    with open(detail_path) as handle:
        return json.load(handle)


def run_suite(args):
    _import_suite(args.src)
    import workloads

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    scratch = out_dir / "detail.json"
    calibration = statistics.median(
        estimators.calibrate() for _ in range(30))
    result = {"stamp": stamp(args, calibration), "runs": []}
    # A smoke run checks outputs only; the traced pass checks none that
    # the untraced one has not.
    traced_seconds = 0 if args.smoke else args.traced_seconds
    ok = True
    for repeat in range(args.repeat):
        run = {}
        for name in workloads.WORKLOADS:
            entry = _child(args, name, 0, args.seconds, scratch)
            run[name] = {
                "correct": entry["correct"],
                "attempted": entry["attempted"],
                "failed": entry["failed"],
                "rounds": entry["rounds"],
                "calibration_ns": entry["calibration_ns"],
                "end_to_end": entry["detail"],
            }
            if repeat == 0 and traced_seconds > 0:
                traced = _child(args, name, 1, traced_seconds, scratch)
                run[name]["per_layer"] = traced["detail"]
                run[name]["correct"] = entry["correct"] and traced["correct"]
            ok = ok and run[name]["correct"]
            _print_workload(name, run[name])
        result["runs"].append(run)
    scratch.unlink(missing_ok=True)
    path = Path(args.out) if args.out else out_dir / (
        "result_seed%d%s.json" % (args.seed, "_smoke" if args.smoke else ""))
    with open(path, "w") as handle:
        json.dump(result, handle, indent=1)
    print("\n%s  (%s)" % (path, "all outputs correct" if ok
                          else "SOME OUTPUTS WRONG"))
    if args.smoke:
        print("smoke run: correctness only, not comparable")
    return 0 if ok else 1


def _print_workload(name, entry):
    print("\n== %s  (%s, %d attempted, %d failed, %d rounds, calibration "
          "%.0f ns)" % (name, "correct" if entry["correct"] else "WRONG",
                        entry["attempted"], entry["failed"], entry["rounds"],
                        entry["calibration_ns"] or 0))
    for metric, value in entry["end_to_end"].items():
        print("  " + _metric_line(metric, value))
    layer = entry.get("per_layer")
    if not layer:
        return
    for metric, value in layer.items():
        if value["value"]:
            print("    " + _metric_line(metric, value))
    check = layer["trace.sum_over_untraced"]["value"]
    if not 0.85 <= check <= 1.15:
        print("    !! layer sum is %.2f of the untraced time "
              "(outside 0.85-1.15)" % check)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload here")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured phase per workload (default 12; "
                             "0.4 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run, correctness only, not comparable")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree to measure (default: this repo's)")
    parser.add_argument("--detail", help="also write the full result here")
    parser.add_argument("--out", help="suite mode: result file to write")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite mode: complete runs to make")
    parser.add_argument("--traced-seconds", type=float, default=6.0,
                        help="suite mode: length of the traced pass "
                             "(0 skips it)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.4 if args.smoke else 12.0
    if args.workload:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
