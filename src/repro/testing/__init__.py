"""Test-harness subsystems: deterministic chaos scenarios and their
machine-checked invariants (:mod:`repro.testing.chaos`), and the one
wire-and-stations set-up they and the parity tests share
(:mod:`repro.testing.world`)."""
