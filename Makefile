PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast loc bench bench-invariants bench-smoke bench-suite-smoke bench-compare bench-ab bench-udp-smoke bench-des-smoke bench-shard-smoke bench-fault-smoke bench-recovery-smoke bench-replica-smoke bench-chaos-smoke bench-claims-smoke

## Tier-1 verification: the full test suite, fail-fast.
test:
	$(PYTHON) -m pytest -x -q

## Quick signal while iterating (no integration-marked tests).
test-fast:
	$(PYTHON) -m pytest -x -q -m "not integration"

## Lines of src/repro per package and in total — the number ROADMAP
## asks every refactor PR to report before and after — and net/ + ipc/
## against the 7300 this round started with and ROADMAP item 3's bar of
## 20 % fewer (<= 5840).  A ratchet: it fails when net/ + ipc/ exceeds
## WIRE_LOC_MAX or the whole tree exceeds SRC_LOC_MAX (ROADMAP measures
## aim 2 by src/ going down), the figures the last PR left.  A PR that
## shrinks them lowers the number; one that must grow them raises it in
## the same diff and says why in CHANGES.md.  benchmarks/*.py (the
## harness outside the suite: 3879 lines before PR 20) is held to
## BENCH_LOC_MAX the same way.
WIRE_LOC_MAX := 6236
SRC_LOC_MAX := 13833
BENCH_LOC_MAX := 2250
loc:
	@for package in src/repro/*/; do \
		case $$package in *__pycache__/) continue;; esac; \
		printf '%-22s %6d\n' "$$package" "$$(cat $$package*.py | wc -l)"; \
	done
	@printf '%-22s %6d\n' "src/repro/*.py" "$$(cat src/repro/*.py | wc -l)"
	@total=$$(find src/repro -name '*.py' | xargs cat | wc -l); \
		wire=$$(cat src/repro/net/*.py src/repro/ipc/*.py | wc -l); \
		bench=$$(cat benchmarks/*.py | wc -l); \
		printf '%-22s %6d\n' "benchmarks/*.py" "$$bench"; \
		printf '%-22s %6d\n' "src/repro total" "$$total"; \
		printf '%-22s %6d  (round start 7300, item-3 bar <= 5840: %d to go)\n' \
		"net/ + ipc/" "$$wire" "$$((wire - 5840))"; \
		test $$total -le $(SRC_LOC_MAX) || { \
			echo "src/repro grew past the $(SRC_LOC_MAX) lines the last PR left"; exit 1; }; \
		test $$wire -le $(WIRE_LOC_MAX) || { \
			echo "net/ + ipc/ grew past the $(WIRE_LOC_MAX) lines the last PR left"; exit 1; }; \
		test $$bench -le $(BENCH_LOC_MAX) || { \
			echo "benchmarks/*.py grew past the $(BENCH_LOC_MAX) lines the last PR left"; exit 1; }

## The committed trajectory, in three steps.  (1) The trusted benchmark
## (BENCHMARK.json, benchmarks/suite/), every workload plus the traced
## per-layer pass, ~2.5 min -> BENCH_suite.json; it runs first so that
## its stamp (commit SHA, dirty flag, nproc, host calibration) sees the
## tree as it was checked out.  (2) bench-invariants.  (3) One
## bench_history/v2 line distilled from BENCH_suite.json (stamp + 7
## workloads x 5 end-to-end medians) appended to BENCH_history.jsonl.
## On a clean tree those three files are all it changes (and
## docs/PAPER_MAP.md, when a claim row's counts or modules moved).
bench:
	$(PYTHON) benchmarks/suite/run.py --seed 1 --out BENCH_suite.json
	$(MAKE) bench-invariants
	$(PYTHON) benchmarks/run_bench.py --history BENCH_suite.json

## Every invariant / virtual-time arm at full size, each asserted, ->
## BENCH_invariants.json: counts over seeded wires and virtual seconds
## only, so the file is byte-identical run to run on any host and a
## diff in it is a change in behaviour (like chaos_digests.json).  The
## claim rows also render docs/PAPER_MAP.md, deterministic the same way.
bench-invariants:
	$(PYTHON) benchmarks/run_bench.py

## The same arms, CI-sized, same bars; writes nothing.
bench-smoke:
	$(PYTHON) benchmarks/run_bench.py --smoke

## The trusted benchmark (BENCHMARK.json, benchmarks/suite/) in
## correctness-only mode: one set-up and 0.4 s of each of the seven
## workloads, every reply checked — durable_mutate reboots from the disk
## alone and compares with its shadow model — and no timing believed.
bench-suite-smoke:
	$(PYTHON) benchmarks/suite/run.py --seed 1 --smoke

## The honest before/after (benchmarks/suite/README.md): ten alternating
## pairs of the tree at BASE against this one, every workload and metric,
## ~45 min on an otherwise idle box.  BASE is a checkout of the parent,
## e.g. `git archive <parent> | tar -x -C /root/scratch/parent`.
bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<tree>"; exit 2; }
	$(PYTHON) benchmarks/suite/compare.py --pairs 10 --tree-a $(BASE) --tree-b .

## A quick A/B of ONE workload while iterating: PAIRS alternating contract
## runs of BASE's src/ and this tree's (this directory's benchmark code on
## both sides), cpu_us_per_trans and p50_us side by side — 3.5 minutes at
## the default 8 pairs.  A reading, not evidence: bench-compare is that.
## With BASE=<ablation tree> — a copy of this checkout with one lane
## edited out of its src/ (docs/PERFORMANCE.md "Lanes" lists the edit for
## each) — it is the lane-trial reading: the base column is what the
## workload costs *without* the lane.
PAIRS ?= 8
bench-ab:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || \
		{ echo "usage: make bench-ab WORKLOAD=<name> BASE=<tree> [PAIRS=8]"; exit 2; }
	@printf '%-4s %12s %12s %12s %12s\n' pair base_cpu_us this_cpu_us base_p50_us this_p50_us
	@run() { $(PYTHON) benchmarks/suite/run.py --workload $(WORKLOAD) \
			--seconds 12 --trace 0 --src $$1 | tail -1 | $(PYTHON) -c \
			'import json, sys; m = json.load(sys.stdin)["metrics"]; print("%.2f %.2f" % (m["cpu_us_per_trans"]["value"], m["p50_us"]["value"]))'; }; \
	for pair in $$(seq 1 $(PAIRS)); do \
		if [ $$((pair % 2)) -eq 1 ]; then \
			base=$$(run $(BASE)/src); this=$$(run src); \
		else \
			this=$$(run src); base=$$(run $(BASE)/src); \
		fi; \
		printf '%-4d %12s %12s %12s %12s\n' $$pair \
			$${base% *} $${this% *} $${base#* } $${this#* }; \
	done

## One family of bench-smoke each (benchmarks/run_bench.py --only).
## udp: the real-wire arm is the suite's udp_pipelined16 — echo server
## in its own OS process over loopback UDP, 16 in flight, every reply
## checked; fails on a wrong or missing one.
bench-udp-smoke:
	$(PYTHON) benchmarks/suite/run.py --workload udp_pipelined16 --seed 1 --smoke | tail -1 | $(PYTHON) -c 'import json, sys; sys.exit(not json.load(sys.stdin)["correct"])'

## des: deterministic replay and >= 8x pipelining amortization at the
## paper-era 2.8 ms virtual RTT.
bench-des-smoke:
	$(PYTHON) benchmarks/run_bench.py --smoke --only des

## shard: the ingress-queue flood — the bounded queue drops and counts
## at its bound, the unbounded one absorbs, both serve afterwards.
bench-shard-smoke:
	$(PYTHON) benchmarks/run_bench.py --smoke --only shard

## fault: the lossy DES arm deterministic by double run, goodput at 10%
## loss >= 50% of lossless, the retry storm recovers every overflow-
## dropped request, crash recovery, exactly-once retried transfers.
bench-fault-smoke:
	$(PYTHON) benchmarks/run_bench.py --smoke --only fault

## recovery: every entry replayed at each table size; kill-and-reboot
## (power failure mid-snapshot, respawn on the same disk, nothing
## re-keyed) with zero double-executions, deterministic by double run.
bench-recovery-smoke:
	$(PYTHON) benchmarks/run_bench.py --smoke --only recovery

## replica: the 4-OS-process pool's replica-kill failover storm (every
## transaction completes, zero per-replica double-executions, member-
## wise location invalidation) and the flood on an in-process pool.
bench-replica-smoke:
	$(PYTHON) benchmarks/run_bench.py --smoke --only replica

## chaos: 20 seeded composed-fault scenarios — zero invariant
## violations, bit-identical double runs, digests equal to
## benchmarks/chaos_digests.json, a fault instant that misses its window
## an error — and the partition primitive severing and healing on all
## three delivery disciplines.
bench-chaos-smoke:
	$(PYTHON) benchmarks/run_bench.py --smoke --only chaos

## claims: the paper's own figures and claims, one counted and asserted
## row each (benchmarks/bench_claims.py) — Fig. 1's intruder, Fig. 2's
## layout, the four schemes, revocation, the key matrix, boot, the
## servers, the bank — full size is docs/PAPER_MAP.md.
bench-claims-smoke:
	$(PYTHON) benchmarks/run_bench.py --smoke --only claims
