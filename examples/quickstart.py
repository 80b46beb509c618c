"""Quickstart: the paper's running example (§2.2-§2.3) as two counts.

A client finds a server's put-port with one broadcast, and one refresh
revokes every outstanding copy of a capability.  Prints those rows of
``benchmarks/bench_claims.py`` at CI size, then OK if each holds; the
other examples print the rest of the table.

Run:  PYTHONPATH=src python examples/quickstart.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "benchmarks"))
from bench_claims import show  # noqa: E402

sys.exit(show("locate_frames", "revocation"))
