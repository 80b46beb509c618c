"""Touch and age (§3): garbage collection without holder records.

A sweeper touches what the directory roots reach; aging then collects
the objects whose capabilities were forgotten.  Prints that row of
``benchmarks/bench_claims.py`` at CI size, then OK if it holds.

Run:  PYTHONPATH=src python examples/garbage_collection.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "benchmarks"))
from bench_claims import show  # noqa: E402

sys.exit(show("touch_and_age"))
