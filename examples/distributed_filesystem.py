"""The modular file stack (§3.2-§3.5) and the UNIX facade over it.

A flat file server is a client of the block server, a multiversion file
copies no page for a new version, and UNIX paths are a library over the
directory and file servers.  Prints those rows of
``benchmarks/bench_claims.py`` at CI size, then OK if each holds.

Run:  PYTHONPATH=src python examples/distributed_filesystem.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "benchmarks"))
from bench_claims import show  # noqa: E402

sys.exit(show("modular_file_stack", "unix_facade"))
