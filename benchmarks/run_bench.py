"""The invariant and virtual-time arms, and the committed trajectory.

The instrument for *speed* is ``benchmarks/suite/`` (``BENCHMARK.json``).
This is the other half: the arms whose verdict is an invariant, a count
over a seeded wire, or virtual time — quantities that repeat exactly, on
any host, at any load — each with a ``check(result) -> [failures]`` the
run asserts (family ``claims``: the paper's own figures and claims).  No
arm here reports a wall-clock figure.

Usage (``PYTHONPATH=src``; ``make`` sets it)::

    python benchmarks/run_bench.py --smoke                 # every arm, CI-sized
    python benchmarks/run_bench.py --smoke --only des,fault
    python benchmarks/run_bench.py                         # full size; writes
                                                           # BENCH_invariants.json
    python benchmarks/run_bench.py --history BENCH_suite.json
    python benchmarks/run_bench.py --write-digests         # re-record the chaos oracle

A full run of every family writes ``BENCH_invariants.json`` and, from
the claim rows, ``docs/PAPER_MAP.md``: no clock and no host in either,
so the committed files are byte-identical run to run and a diff is a
change in behaviour.  A smoke or partial run writes nothing.
``--history FILE`` runs no arm: it distils the stamped result file that
``benchmarks/suite/run.py --out FILE`` wrote into one ``bench_history/v2``
line — stamp plus the median of every end-to-end metric on every workload
— and appends it to ``BENCH_history.jsonl`` (``make bench``: all three).
"""

import argparse
import importlib
import json
import os
import statistics
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPO = os.path.dirname(_HERE)

INVARIANTS = os.path.join(_REPO, "BENCH_invariants.json")
PAPER_MAP = os.path.join(_REPO, "docs", "PAPER_MAP.md")
HISTORY = os.path.join(_REPO, "BENCH_history.jsonl")
HISTORY_SCHEMA = "bench_history/v2"

#: ``--only`` name -> the module whose ``ARMS`` table it runs; each
#: ``make bench-<name>-smoke`` is ``--smoke --only <name>``.
FAMILIES = ("des", "shard", "fault", "recovery", "replica", "chaos", "claims")

#: What a v2 history row copies from the suite's stamp.
STAMP_KEYS = ("git_sha", "git_dirty", "nproc", "python", "seed", "seconds",
              "calibration_ns", "calib_ref_ns")


def _module(family):
    if _HERE not in sys.path:  # imported, not run: the arms import each other
        sys.path.insert(0, _HERE)
    return importlib.import_module("bench_" + family)


def run_arms(families, smoke):
    """Run and check every arm of ``families``; returns ``(results,
    failures)`` with each failure prefixed by its arm's name."""
    results, failures = {}, []
    for family in families:
        for name, (workload, check, smoke_kwargs) in _module(family).ARMS.items():
            result = workload(**(smoke_kwargs if smoke else {}))
            found = check(result)
            print("  %-28s %s" % (name, "FAIL" if found else "ok"))
            results[name] = result
            failures.extend("%s: %s" % (name, failure) for failure in found)
    return results, failures


def _contract():
    with open(os.path.join(_REPO, "BENCHMARK.json")) as handle:
        listed = json.load(handle)
    return ([w["name"] for w in listed["workloads"]],
            [m["name"] for m in listed["end_to_end"]])


def history_row(suite_result):
    """The ``bench_history/v2`` line for one ``suite/run.py --out`` file:
    where it came from and, per ``BENCHMARK.json`` workload, the median
    of each end-to-end metric (over the file's runs, when it holds more
    than one).  Raises ``ValueError`` for a result that must not enter
    the trajectory: a smoke run, a wrong output, a missing number."""
    stamp = suite_result["stamp"]
    if stamp["smoke"]:
        raise ValueError("a smoke run's timings are not comparable; "
                         "no history row for it")
    workloads, metrics = _contract()
    medians = {}
    for workload in workloads:
        entries = [run[workload] for run in suite_result["runs"]
                   if workload in run]
        if not entries:
            raise ValueError("the result has no %s" % workload)
        if not all(entry["correct"] for entry in entries):
            raise ValueError("%s gave wrong outputs; its timings mean "
                             "nothing" % workload)
        medians[workload] = {
            metric: statistics.median(
                entry["end_to_end"][metric]["value"] for entry in entries)
            for metric in metrics
        }
    row = {"schema": HISTORY_SCHEMA,
           "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    row.update((key, stamp[key]) for key in STAMP_KEYS)
    row["medians"] = medians
    return row


def append_history(suite_path, history_path=HISTORY):
    with open(suite_path) as handle:
        row = history_row(json.load(handle))
    with open(history_path, "a") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized arms; asserts the same bars, "
                             "writes nothing")
    parser.add_argument("--only", default=",".join(FAMILIES),
                        help="comma-separated families to run (of %s)"
                             % ", ".join(FAMILIES))
    parser.add_argument("--history", metavar="SUITE_RESULT",
                        help="run nothing; append the v2 line for this "
                             "suite/run.py --out file to BENCH_history.jsonl")
    parser.add_argument("--write-digests", action="store_true",
                        help="run the chaos matrix and record its digests "
                             "in chaos_digests.json instead of checking them")
    args = parser.parse_args(argv)

    if args.history:
        try:
            row = append_history(args.history)
        except ValueError as refused:
            print("refused: %s" % refused)
            return 1
        print("appended %s @ %s%s to %s" % (
            row["schema"], row["git_sha"][:12],
            " (dirty)" if row["git_dirty"] else "", HISTORY))
        return 0
    if args.write_digests:
        failures = _module("chaos").write_digests()
    else:
        families = [name for name in args.only.split(",") if name]
        unknown = sorted(set(families) - set(FAMILIES))
        if unknown:
            parser.error("no such family: %s" % ", ".join(unknown))
        results, failures = run_arms(families, args.smoke)
        if not failures and not args.smoke and set(families) == set(FAMILIES):
            with open(INVARIANTS, "w") as handle:
                json.dump(results, handle, indent=1, sort_keys=True)
                handle.write("\n")
            with open(PAPER_MAP, "w") as handle:
                handle.write(_module("claims").paper_map(results))
            print("wrote %s and %s" % (INVARIANTS, PAPER_MAP))
    for failure in failures:
        print("FAIL: %s" % failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
