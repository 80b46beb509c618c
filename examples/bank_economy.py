"""The bank server economy (§3.6): money, currencies, quotas, refunds.

Money is conserved, dollars are the disk quota, a refused transfer
costs nothing, and returned blocks return the money.  Prints that row
of ``benchmarks/bench_claims.py`` at CI size, then OK if it holds.

Run:  PYTHONPATH=src python examples/bank_economy.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "benchmarks"))
from bench_claims import show  # noqa: E402

sys.exit(show("bank_economy"))
