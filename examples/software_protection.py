"""Protection without F-boxes (§2.4): key matrix, boot, link encryption.

A sealed capability validates only from the machine it was sealed for,
the public-key boot agrees fresh keys, and a wiretap on an encrypted
link sees no capability bytes.  Prints those rows of
``benchmarks/bench_claims.py`` at CI size, then OK if each holds.

Run:  PYTHONPATH=src python examples/software_protection.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "benchmarks"))
from bench_claims import show  # noqa: E402

sys.exit(show("matrix_replay_and_cache", "boot_handshake",
              "sealed_service", "link_encrypted_tap"))
