"""Compare two result files of ``run.py``, or run and compare two trees.

``compare.py A.json B.json`` prints one verdict per (metric, workload):

* ``worse`` — B's median is worse than A's by more than the bound
  ``BENCHMARK.json`` fixes for the metric;
* ``better`` — B's median is better by more than the spread between A's
  own runs (and, with ``--pairs``, B won at least nine pairs in ten);
* ``within bound`` — neither;
* ``unresolved`` — the run-to-run spread is wider than the bound, so the
  metric cannot tell, unless every run of one side beats every run of
  the other.

The spread is the interquartile distance of A's runs as a share of their
median when the file holds four runs or more, else the one recorded in
``NOISE.json``.  ``failed_share``, ``disk_writes_per_trans`` and, on the
simulator workloads, ``frames_per_trans`` repeat exactly by seed and are
held to equality.  A file stamped ``smoke`` is refused.

``compare.py --pairs N --tree-a DIR --tree-b DIR`` measures both source
trees with this directory's benchmark code, alternating which side runs
first, and reports median and quartiles per side.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import contract
import estimators

HERE = Path(__file__).resolve().parent

#: Exact on every workload.
EXACT = ("failed_share", "disk_writes_per_trans")
#: The one workload on a real wire: its frame count is not seeded.
UNSEEDED_FRAMES = ("udp_pipelined16",)

BETTER, WORSE, WITHIN, UNRESOLVED = (
    "better", "worse", "within bound", "unresolved")


def is_exact(metric, workload):
    return metric in EXACT or (
        metric == "frames_per_trans" and workload not in UNSEEDED_FRAMES)


def verdict(a_values, b_values, bound, noise=None, wins=None):
    """Verdict for one lower-is-better metric on one workload.

    ``a_values``/``b_values`` are per-run values; ``bound`` the allowed
    worsening as a share of A's median (0 means exact); ``noise`` the
    spread to assume when A has too few runs to show its own; ``wins``
    the share of pairs B won (ties excluded), when the runs were paired.
    """
    a = estimators.quartiles(a_values)[1]
    b = estimators.quartiles(b_values)[1]
    if bound == 0:
        if b == a:
            return WITHIN
        return WORSE if b > a else BETTER
    spread = (estimators.spread(a_values) if len(a_values) >= 4
              else (noise or 0.0))
    change = (b - a) / a
    if spread > bound:
        if max(b_values) < min(a_values):
            return BETTER
        if min(b_values) > max(a_values) and change > bound:
            return WORSE
        return UNRESOLVED
    if change > bound:
        return WORSE
    if change < 0 and -change > spread and (wins is None or wins >= 0.9):
        return BETTER
    return WITHIN


def load_result(path):
    with open(path) as handle:
        result = json.load(handle)
    if result["stamp"].get("smoke"):
        raise SystemExit("%s is a smoke run: correctness only, not "
                         "comparable" % path)
    return result


def values_by_key(result):
    """``{(workload, metric): [value per run]}`` of the end-to-end
    metrics in a result file."""
    out = {}
    for run in result["runs"]:
        for workload, entry in run.items():
            for metric, value in entry["end_to_end"].items():
                out.setdefault((workload, metric), []).append(value["value"])
    return out


def noise_spreads():
    """Run-to-run spread per (workload, metric) from NOISE.json."""
    path = HERE / "NOISE.json"
    if not path.exists():
        return {}
    with open(path) as handle:
        return {key: estimators.spread(values)
                for key, values in values_by_key(json.load(handle)).items()
                if len(values) >= 4 and estimators.quartiles(values)[1]}


def compare(a, b, bounds, noise, wins=None):
    """Rows ``(workload, metric, median A, median B, change, verdict)``
    for every (workload, metric) both sides have."""
    rows = []
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        bound = 0 if is_exact(metric, workload) else bounds.get(metric)
        if bound is None:
            continue
        med_a = estimators.quartiles(a[key])[1]
        med_b = estimators.quartiles(b[key])[1]
        rows.append((
            workload, metric, med_a, med_b,
            (med_b - med_a) / med_a if med_a else 0.0,
            verdict(a[key], b[key], bound, noise.get(key),
                    wins.get(key) if wins else None),
        ))
    return rows


def print_rows(rows):
    print("%-16s %-22s %12s %12s %8s  %s" % (
        "workload", "metric", "A", "B", "change", "verdict"))
    for workload, metric, a, b, change, result in rows:
        print("%-16s %-22s %12.4f %12.4f %+7.1f%%  %s" % (
            workload, metric, a, b, 100 * change, result))
    return any(row[5] == WORSE for row in rows)


def _warn_stamps(a, b):
    for field in ("nproc", "python", "calib_ref_ns", "seconds"):
        if a["stamp"].get(field) != b["stamp"].get(field):
            print("note: %s differs (%r vs %r)" % (
                field, a["stamp"].get(field), b["stamp"].get(field)))


def run_pairs(args):
    """Alternating-order pairs of two source trees."""
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    sides = {"A": Path(args.tree_a), "B": Path(args.tree_b)}
    collected = {"A": {}, "B": {}}
    for pair in range(args.pairs):
        order = ("A", "B") if pair % 2 == 0 else ("B", "A")
        for side in order:
            path = out_dir / ("pair%02d_%s.json" % (pair, side))
            command = [
                sys.executable, str(HERE / "run.py"),
                "--src", str(sides[side] / "src"),
                "--seed", str(args.seed + pair), "--out", str(path),
                "--traced-seconds", "0",
            ]
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                raise SystemExit("pair %d side %s failed:\n%s" % (
                    pair, side, done.stderr[-2000:] or done.stdout[-2000:]))
            for key, values in values_by_key(load_result(path)).items():
                collected[side].setdefault(key, []).extend(values)
            print("pair %d side %s done" % (pair, side), flush=True)
    wins = {}
    print("\n%-16s %-22s %s" % ("workload", "metric",
                                "side: q1 / median / q3"))
    for key in sorted(collected["A"]):
        a, b = collected["A"][key], collected["B"].get(key)
        if not b:
            continue
        won = sum(1 for x, y in zip(a, b) if y < x)
        lost = sum(1 for x, y in zip(a, b) if y > x)
        wins[key] = won / (won + lost) if won + lost else 0.0
        print("%-16s %-22s A: %.4f / %.4f / %.4f   B: %.4f / %.4f / %.4f   "
              "B won %d of %d" % (key + estimators.quartiles(a)
                                  + estimators.quartiles(b)
                                  + (won, won + lost)))
    print()
    return print_rows(compare(collected["A"], collected["B"],
                              contract.bounds(), noise_spreads(), wins))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="A.json B.json")
    parser.add_argument("--pairs", type=int, default=0)
    parser.add_argument("--tree-a", help="checkout to measure as A")
    parser.add_argument("--tree-b", help="checkout to measure as B")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs:
        if not (args.tree_a and args.tree_b):
            parser.error("--pairs needs --tree-a and --tree-b")
        return 1 if run_pairs(args) else 0
    if len(args.files) != 2:
        parser.error("give two result files, or --pairs")
    a, b = load_result(args.files[0]), load_result(args.files[1])
    _warn_stamps(a, b)
    worse = print_rows(compare(values_by_key(a), values_by_key(b),
                               contract.bounds(), noise_spreads()))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
