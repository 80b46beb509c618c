PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast loc bench bench-smoke bench-suite-smoke bench-compare bench-ab bench-udp-smoke bench-des-smoke bench-shard-smoke bench-fault-smoke bench-recovery-smoke bench-replica-smoke bench-chaos-smoke

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
## the same diff and says why in CHANGES.md.
WIRE_LOC_MAX := 6357
SRC_LOC_MAX := 14150
loc:
	@for package in src/repro/*/; do \
		case $$package in *__pycache__/) continue;; esac; \
		printf '%-22s %6d\n' "$$package" "$$(cat $$package*.py | wc -l)"; \
	done
	@printf '%-22s %6d\n' "src/repro/*.py" "$$(cat src/repro/*.py | wc -l)"
	@total=$$(find src/repro -name '*.py' | xargs cat | wc -l); \
		wire=$$(cat src/repro/net/*.py src/repro/ipc/*.py | wc -l); \
		printf '%-22s %6d\n' "src/repro total" "$$total"; \
		printf '%-22s %6d  (round start 7300, item-3 bar <= 5840: %d to go)\n' \
		"net/ + ipc/" "$$wire" "$$((wire - 5840))"; \
		test $$total -le $(SRC_LOC_MAX) || { \
			echo "src/repro grew past the $(SRC_LOC_MAX) lines the last PR left"; exit 1; }; \
		test $$wire -le $(WIRE_LOC_MAX) || { \
			echo "net/ + ipc/ grew past the $(WIRE_LOC_MAX) lines the last PR left"; exit 1; }

## Full throughput suite; refreshes BENCH_throughput.json.
bench:
	$(PYTHON) benchmarks/run_bench.py

## CI-sized benchmark pass: proves the harness runs end to end in a few
## seconds.  Does not overwrite BENCH_throughput.json.
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

## Tiny multi-process run of the real-wire UDP benchmark: server in its
## own OS process over loopback, serial vs 16-in-flight pipelined.
bench-udp-smoke:
	$(PYTHON) benchmarks/bench_udp.py --smoke

## Virtual-clock DES benchmark at a fixed seed: asserts deterministic
## replay and the >= 8x pipelining amortization at the paper-era RTT.
bench-des-smoke:
	$(PYTHON) benchmarks/bench_des.py --smoke

## Sharded-data-plane benchmark: contended 8-thread lookups plus the
## queue-overload flood; asserts the drop-and-count and recovery bars.
bench-shard-smoke:
	$(PYTHON) benchmarks/bench_shard.py --smoke

## Fault-injection scenario suite: asserts the lossy DES arm is
## deterministic by double run, goodput at 10% loss stays >= 50% of
## lossless, the retry storm recovers every overflow-dropped request,
## crash recovery succeeds, and retried transfers are exactly-once.
bench-fault-smoke:
	$(PYTHON) benchmarks/bench_fault.py --smoke

## Durability suite: asserts WAL overhead on the echo workload stays
## <= 15%, kill-and-reboot (power failure mid-snapshot, respawn on the
## same disk) recovers every entry with zero double-executions, and the
## scenario is deterministic by double run.
bench-recovery-smoke:
	$(PYTHON) benchmarks/bench_recovery.py --smoke

## Replicated-service suite: 4-OS-process pool aggregate throughput,
## the replica-kill failover storm (asserts every transaction completes
## with zero per-replica double-executions and member-wise location
## invalidation), and the bounded-ingress overload flood on the pool.
bench-replica-smoke:
	$(PYTHON) benchmarks/bench_replica.py --smoke

## Chaos suite: 20 seeded composed-fault scenarios (partitions landing
## mid-revocation-fan-out, replica kill inside a drop burst, power fail
## during a partition, intruder replay from the dark side of a cut,
## multi-hop delegation across a heal) — asserts zero invariant
## violations, bit-identical double runs, and the partition primitive
## severing/healing on all three delivery disciplines.
bench-chaos-smoke:
	$(PYTHON) benchmarks/bench_chaos.py --smoke
