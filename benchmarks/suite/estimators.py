"""Calibration loop and the estimators every metric of the suite goes through.

Host speed on the sandbox drifts by ~1.7x in stretches of 100-300 ms
(measured: the same echo loop reads 14 us and 24 us per transaction
within one second).  A time is therefore never reported raw: it is
divided by the time a fixed pure-Python loop took right next to it and
multiplied by :data:`CALIB_REF_NS`, so its unit is "microseconds at
reference host speed".  Everything here is plain arithmetic on lists so
the tests can drive it with synthetic rounds.
"""

import hashlib
import statistics
import struct
import time
from collections import deque

#: What one :func:`calibrate` call costs at reference host speed, in ns.
#: A constant of the benchmark (the contract fixes the key set of
#: BENCHMARK.json, so it lives here): changing it rescales every time
#: metric and invalidates comparisons with older result files.
CALIB_REF_NS = 1_500_000

_HEADER = struct.Struct(">HHIQ6s")


class _Node:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a = a
        self.b = b
        self.c = c

    def step(self, x):
        return _Node(self.b, self.c, self.a + x)


def calibrate(clock=time.perf_counter_ns):
    """Run the fixed calibration loop once; returns its duration in ns.

    The mix mirrors what the stack under test does per transaction —
    method calls on small objects, dict and deque traffic, struct
    packing, byte slicing, one SHA-256 per few iterations — because a
    loop of another character slows by a different factor when the host
    does (an arithmetic-only loop over-corrected by 8%).
    """
    table = {}
    queue = deque()
    node = _Node(1, 2, 3)
    sha = hashlib.sha256
    pack = _HEADER.pack
    unpack = _HEADER.unpack
    start = clock()
    for i in range(600):
        raw = pack(i & 0xFFFF, 7, i, i * 977, b"abcdef")
        fields = unpack(raw)
        node = node.step(fields[2])
        copy = dict(a=fields[0], b=raw, c=node)
        queue.append(copy)
        table[fields[2] & 255] = copy
        if len(queue) > 8:
            old = queue.popleft()
            image = int.from_bytes(sha(old["b"]).digest()[:6], "big")
            table.pop(image & 255, None)
    return clock() - start


def quartiles(values):
    """(q1, median, q3) by the rule the driver uses."""
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def normalise(raw_ns, calib_ns):
    """``raw_ns`` rescaled to reference host speed.

    Every time metric is the median over rounds of a round's value
    normalised by the calibrations adjacent to it: a slow stretch of
    the host moves neither the rounds it covers (their calibration
    slowed with them) nor the median (the others outvote it).
    """
    return raw_ns / calib_ns * CALIB_REF_NS


#: Percentiles a tail report may name, lowest first, each with the N of
#: "one sample in N lies beyond it" (whole numbers, so that the
#: ten-samples rule is not at the mercy of 100.0 - 99.9).
PERCENTILE_LADDER = ((50.0, 2), (90.0, 10), (99.0, 100), (99.9, 1000),
                     (99.99, 10000))


def supported_percentile(count, beyond=10):
    """The highest rung ``(percentile, one_in)`` of the ladder with at
    least ``beyond`` samples above it among ``count`` samples, or None
    when even the lowest has fewer."""
    best = None
    for rung in PERCENTILE_LADDER:
        if count >= beyond * rung[1]:
            best = rung
    return best


def tail(values, wanted=99.0):
    """``(percentile used, its value, sample count)``: ``wanted`` when
    the sample supports it, else the highest percentile that it does
    (the median when it supports none)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    count = len(ordered)
    rung = supported_percentile(count) or PERCENTILE_LADDER[0]
    for candidate in PERCENTILE_LADDER:
        if candidate[0] == wanted and candidate[0] <= rung[0]:
            rung = candidate
    used, one_in = rung
    # count // one_in samples lie beyond the one reported
    return used, ordered[max(0, count - count // one_in - 1)], count
