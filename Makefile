PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast model-soak loc calls reach bench bench-invariants bench-smoke bench-suite-smoke bench-compare bench-ab bench-udp-smoke bench-des-smoke bench-flood-smoke bench-fault-smoke bench-recovery-smoke bench-replica-smoke bench-chaos-smoke bench-claims-smoke

## Tier-1 verification: the full test suite, fail-fast.
test:
	$(PYTHON) -m pytest -x -q

## Quick signal while iterating (no integration-marked tests).
test-fast:
	$(PYTHON) -m pytest -x -q -m "not integration"

## The durable directory against the naive model (src/repro/testing/
## model.py): tier-1 runs TestGeneratedSequences in tests/test_wal_txn.py
## under a bounded, repeatable profile; this runs the same machines on
## both stations under a long, unseeded one (minutes).  A failure prints
## the @reproduce_failure line that replays it.
model-soak:
	$(PYTHON) tests/test_wal_txn.py

## Lines of src/repro per package and in total — the number ROADMAP
## asks every refactor PR to report before and after — and net/ + ipc/
## against the 7300 this round started with and ROADMAP item 7's bar of
## 20 % fewer (<= 5840).  A ratchet: it fails when net/ + ipc/ exceeds
## WIRE_LOC_MAX or the whole tree exceeds SRC_LOC_MAX (ROADMAP measures
## aim 2 by src/ going down), the figures the last PR left.  A PR that
## shrinks them lowers the number; one that must grow them raises it in
## the same diff and says why in CHANGES.md.  benchmarks/*.py (the
## harness outside the suite: 3879 lines before PR 20) is held to
## BENCH_LOC_MAX the same way, and the test code — tests/ plus
## src/repro/testing/, 18610 lines before the shared World — to
## TEST_LOC_MAX.
WIRE_LOC_MAX := 5560
SRC_LOC_MAX := 13028
BENCH_LOC_MAX := 2476
TEST_LOC_MAX := 19164
loc:
	@for package in src/repro/*/; do \
		case $$package in *__pycache__/) continue;; esac; \
		printf '%-22s %6d\n' "$$package" "$$(cat $$package*.py | wc -l)"; \
	done
	@printf '%-22s %6d\n' "src/repro/*.py" "$$(cat src/repro/*.py | wc -l)"
	@total=$$(find src/repro -name '*.py' | xargs cat | wc -l); \
		wire=$$(cat src/repro/net/*.py src/repro/ipc/*.py | wc -l); \
		bench=$$(cat benchmarks/*.py | wc -l); \
		tests=$$(cat tests/*.py | wc -l); \
		testing=$$(cat src/repro/testing/*.py | wc -l); \
		printf '%-22s %6d\n' "benchmarks/*.py" "$$bench"; \
		printf '%-22s %6d  (tests/ %d + src/repro/testing/ %d)\n' \
		"tests/ + testing/" "$$((tests + testing))" "$$tests" "$$testing"; \
		printf '%-22s %6d\n' "src/repro total" "$$total"; \
		if [ $$wire -le 5840 ]; then bar="met, $$((5840 - wire)) under"; \
		else bar="$$((wire - 5840)) to go"; fi; \
		printf '%-22s %6d  (round start 7300, item-7 bar <= 5840: %s)\n' \
		"net/ + ipc/" "$$wire" "$$bar"; \
		test $$total -le $(SRC_LOC_MAX) || { \
			echo "src/repro grew past the $(SRC_LOC_MAX) lines the last PR left"; exit 1; }; \
		test $$wire -le $(WIRE_LOC_MAX) || { \
			echo "net/ + ipc/ grew past the $(WIRE_LOC_MAX) lines the last PR left"; exit 1; }; \
		test $$bench -le $(BENCH_LOC_MAX) || { \
			echo "benchmarks/*.py grew past the $(BENCH_LOC_MAX) lines the last PR left"; exit 1; }; \
		test $$((tests + testing)) -le $(TEST_LOC_MAX) || { \
			echo "tests/ + src/repro/testing/ grew past the $(TEST_LOC_MAX) lines the last PR left"; exit 1; }

## Python calls into src/repro per synchronous echo, per durable ENTER and
## LOOKUP and per retried echo through a replica set, function by function — the table tests/test_call_budget.py asserts
## the totals of (a ratchet like loc: lower its BUDGET when they fall).
calls:
	$(PYTHON) tests/test_call_budget.py

## Reach at function grain (tests/test_reach.py): every function of
## src/repro with the first claim row, arm or suite workload that runs
## it, then UNREACHED by reason.  TESTS=1 also runs tier-1 under the
## hook (~2 min) and fails on an "API a test names" entry no test reaches.
reach:
	$(PYTHON) tests/test_reach.py $(if $(TESTS),--tests)

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
## both sides), setup_s, cpu_us_per_trans, p50_us and peak_rss_mb side by
## side, then the pairs this tree won and the two medians on setup_s and
## on cpu_us_per_trans — 3.5 minutes at the default 8 pairs, every run on
## seed SEED (a claim should also hold on a seed not used while writing
## the change).  A reading, not evidence: bench-compare is that.
## With BASE=<ablation tree> — a copy of this checkout with one lane
## edited out of its src/ (docs/PERFORMANCE.md "Lanes" lists the edit for
## each) — it is the lane-trial reading: the base column is what the
## workload costs *without* the lane.
PAIRS ?= 8
SEED ?= 1
bench-ab:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || \
		{ echo "usage: make bench-ab WORKLOAD=<name> BASE=<tree> [PAIRS=8] [SEED=1]"; exit 2; }
	@printf '%-4s %10s %10s %11s %11s %11s %11s %11s %11s\n' pair base_setup \
		this_setup base_cpu_us this_cpu_us base_p50_us this_p50_us \
		base_rss_mb this_rss_mb
	@run() { $(PYTHON) benchmarks/suite/run.py --workload $(WORKLOAD) \
			--seed $(SEED) --seconds 12 --trace 0 --src $$1 | tail -1 | $(PYTHON) -c \
			'import json, sys; m = json.load(sys.stdin)["metrics"]; print(" ".join("%.4f" % m[k]["value"] for k in ("setup_s", "cpu_us_per_trans", "p50_us", "peak_rss_mb")))'; }; \
	setup=; cpu=; \
	for pair in $$(seq 1 $(PAIRS)); do \
		if [ $$((pair % 2)) -eq 1 ]; then \
			base=$$(run $(BASE)/src); this=$$(run src); \
		else \
			this=$$(run src); base=$$(run $(BASE)/src); \
		fi; \
		set -- $$base $$this; \
		printf '%-4d %10s %10s %11.2f %11.2f %11.2f %11.2f %11.2f %11.2f\n' \
			$$pair $$1 $$5 $$2 $$6 $$3 $$7 $$4 $$8; \
		setup="$$setup $$1,$$5"; cpu="$$cpu $$2,$$6"; \
	done; \
	for metric in "setup_s $$setup" "cpu_us_per_trans $$cpu"; do \
		echo $$metric | $(PYTHON) -c 'import statistics, sys; name, *cells = sys.stdin.read().split(); pairs = [tuple(map(float, p.split(","))) for p in cells]; base, this = (statistics.median(side) for side in zip(*pairs)); print("this tree won %d of %d pairs on %s; medians %.4g (base) -> %.4g (%+.1f %%)" % (sum(t < b for b, t in pairs), len(pairs), name, base, this, 100 * (this / base - 1)))'; \
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

## flood: the ingress-queue flood — the bounded queue drops and counts
## at its bound, the unbounded one absorbs, both serve afterwards.
bench-flood-smoke:
	$(PYTHON) benchmarks/run_bench.py --smoke --only flood

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
