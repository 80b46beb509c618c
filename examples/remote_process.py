"""The memory server (§3.1): a parent builds its child on any machine.

Segments and a process made on a remote memory server, controlled by
the process capability alone.  Prints that row of
``benchmarks/bench_claims.py`` at CI size, then OK if it holds.

Run:  PYTHONPATH=src python examples/remote_process.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "benchmarks"))
from bench_claims import show  # noqa: E402

sys.exit(show("process_lifecycle"))
