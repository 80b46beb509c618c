"""Fig. 2 and the four rights-protection schemes of §2.3, side by side.

The 128-bit layout; which schemes notice a tampered rights field; which
restrict through the server and which (commutative) on the client; and
that an exact copy needs no server.  Prints those rows of
``benchmarks/bench_claims.py`` at CI size, then OK if each holds.

Run:  PYTHONPATH=src python examples/four_schemes.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "benchmarks"))
from bench_claims import show  # noqa: E402

sys.exit(show("fig2_layout", "scheme_tampers", "server_restrict",
              "client_restrict", "rights_by_brute_force", "exact_copy"))
