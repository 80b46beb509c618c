"""``BENCHMARK.json`` at the root of the checkout: the one list of the
workloads and of every metric's name, unit, direction and bound.  The
code reads them from there and keeps no table of its own."""

import functools
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


@functools.cache
def benchmark():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def names(section):
    """Names listed under ``workloads``, ``end_to_end`` or ``per_layer``."""
    return [entry["name"] for entry in benchmark()[section]]


def units():
    """``{metric: unit}`` over both metric lists."""
    listed = benchmark()
    return {m["name"]: m["unit"]
            for m in listed["end_to_end"] + listed["per_layer"]}


def bounds():
    """``{end-to-end metric: the share by which it may worsen}``."""
    return {m["name"]: m["bound"] for m in benchmark()["end_to_end"]}
