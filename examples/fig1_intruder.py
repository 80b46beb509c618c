"""Figure 1 (§2.2-§2.3): an intruder on the wire, and what stops it.

Impersonation by GET(P) fails on the one-way F-box, a forged reply
lacks F(S), and a stolen capability dies when its owner refreshes it.
Prints the four rows of ``benchmarks/bench_claims.py`` that count this
at CI size, then OK if each holds.

Run:  PYTHONPATH=src python examples/fig1_intruder.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "benchmarks"))
from bench_claims import show  # noqa: E402

sys.exit(show("intruder_present", "impersonation_campaign", "forged_replies",
              "stolen_then_revoked", "replayed_request"))
