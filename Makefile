# Standard entry points. `make check` is the full gate: gofmt, build,
# vet, the test suite under the race detector (the control plane's
# registry and solver are exercised concurrently over real HTTP), and
# the coopbench smoke test.

GO ?= go

.PHONY: all build vet test race bench bench-cores bench-fleet bench-guard bench-smoke benchall chaos fleet-chaos drift-chaos fleet-sim fleet-sim-check fleet-sim-race fuzz check fmt fmt-check loc

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Solver-path benchmarks (roofline search/evaluator + control-plane
# serve path), their allocs/op written to BENCH_solver.json by
# cmd/benchdiff (artifact mode: bench output on stdin) so CI tracks
# the allocation trajectory PR-over-PR. The raw `go test -bench` stream,
# timings included, still prints (via stderr). `make benchall` is the
# full unfiltered sweep.
SOLVER_BENCH = $(GO) test -bench 'BenchmarkSolve|BenchmarkEvaluate|BenchmarkEvaluator|BenchmarkAllocate' \
	-benchmem -run '^$$' ./internal/roofline/ ./internal/ctrlplane/

bench:
	$(SOLVER_BENCH) | $(GO) run ./cmd/benchdiff > BENCH_solver.json

# The solver benchmarks again on one core: fails unless their artifact
# equals the one `make bench` wrote at the default GOMAXPROCS, so the
# allocs/op that bench-guard gates do not depend on the runner's cores.
# Run after `make bench` (CI does).
bench-cores:
	GOMAXPROCS=1 $(SOLVER_BENCH) | $(GO) run ./cmd/benchdiff > .bench-cores-solver.json
	diff BENCH_solver.json .bench-cores-solver.json
	rm -f .bench-cores-solver.json

# Placement-throughput benchmarks (decisions/sec against 100- and
# 1000-machine fleet snapshots, domain-spread included), the inventory
# poll of 40 in-process members, unchanged and changed, a quiet
# rebalance plan over 40 members (the re-pack memo hit) and the cold
# first quiet round of a rack_loss recovery (the re-pack memo missed),
# their allocs/op written to BENCH_fleet.json the same way
# BENCH_solver.json tracks the single-machine solver.
bench-fleet:
	$(GO) test -bench 'BenchmarkPlacement|BenchmarkInventoryPoll|BenchmarkRebalance' -benchmem -run '^$$' ./internal/fleet/ \
		| $(GO) run ./cmd/benchdiff > BENCH_fleet.json

# Allocation gate: compare both benchmark suites against the JSON
# baselines committed at HEAD. Fails on any tracked benchmark regressing
# more than 25% in allocs/op (a zero-alloc baseline growing any
# allocations fails outright) or going missing from the fresh run (see
# cmd/benchdiff, gate mode: -baseline and -fresh). Timing is not tracked here: the baselines come from
# another machine, and timing claims go through coopbench (bench/).
# Compares the working-tree artifacts, so run after `make bench
# bench-fleet` has refreshed them (CI does exactly that; `make bench
# bench-fleet bench-guard` locally).
bench-guard:
	git show HEAD:BENCH_solver.json > .bench-baseline-solver.json
	git show HEAD:BENCH_fleet.json > .bench-baseline-fleet.json
	$(GO) run ./cmd/benchdiff -baseline .bench-baseline-solver.json -fresh BENCH_solver.json
	$(GO) run ./cmd/benchdiff -baseline .bench-baseline-fleet.json -fresh BENCH_fleet.json
	rm -f .bench-baseline-solver.json .bench-baseline-fleet.json

benchall:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# coopbench (bench/, a module of its own that tier-1 does not descend
# into) at toy size, ~3 s: keeps the end-to-end benchmark compiling and
# its output checks passing against the program as it changes.
bench-smoke:
	cd bench && $(GO) test ./...

# Fault-tolerance suite: kill/restart a real daemon mid-workload under
# injected transport faults, clock-skewed TTL expiry, server-side fault
# storms (see internal/ctrlplane/chaos_test.go), and the HA scenario —
# leader killed mid-heartbeat-storm, promotion within the lease bound
# (see internal/ctrlplane/replica/replica_test.go).
chaos:
	$(GO) test -race -count 1 -run 'TestChaos' -v ./internal/ctrlplane/ ./internal/ctrlplane/replica/

# Fleet-level chaos: a member machine is partitioned off the network,
# the rebalancer re-homes its apps within the per-round move bound, and
# after the partition heals the revived member's duplicate
# registrations are cleaned up and load re-spreads (see
# internal/fleet/chaos_test.go).
fleet-chaos:
	$(GO) test -race -count 1 -run 'TestChaosFleet' -v ./internal/fleet/

# Adaptive-loop chaos: a mis-declared app is re-fit online, the leader
# is killed mid-recalibration, and the journaled fitted model must
# survive failover — the promoted follower keeps serving the corrected
# allocation and re-confirms the drift when telemetry resumes (see
# internal/ctrlplane/replica/drift_chaos_test.go).
drift-chaos:
	$(GO) test -race -count 1 -run 'TestChaosDrift' -v ./internal/ctrlplane/replica/

# Trace-driven fleet stress harness: replay the checked-in scenario
# corpus (diurnal wave, flash crowd, autoscale churn, mis-declared
# drift with a mid-scenario leader kill, rebalance flapping) against
# live in-process coopd members and check the stability invariants —
# exactly-once, bounded-churn, no-oscillation, convergence — after
# every round. Writes the machine-readable verdicts to
# fleet-sim-verdicts.json (see internal/fleetsim and cmd/fleetsim); they
# hold no wall-clock field, so CI requires the regenerated file to equal
# the committed one.
fleet-sim:
	$(GO) run ./cmd/fleetsim -out fleet-sim-verdicts.json

# fleet-sim, then fail unless the regenerated verdicts equal the
# committed ones: the gate a refactor that must hold every verdict runs.
fleet-sim-check: fleet-sim
	git diff --exit-code fleet-sim-verdicts.json

# The whole corpus again under the race detector (writes no verdicts
# file): placer, rebalancer, telemetry, storm triage, quarantine
# bookkeeping and the preemption pass all run concurrently with polls.
fleet-sim-race:
	$(GO) run -race ./cmd/fleetsim

# 30s coverage-guided smokes over the incremental-evaluator equivalence
# property and the candidate-index differential (a pooled planning
# session must hold what a cold one builds, whatever edited the fleet);
# regressions in either fast path show up as counterexamples.
fuzz:
	$(GO) test -fuzz FuzzEvaluatorEquivalence -fuzztime 30s -run '^$$' ./internal/roofline/
	$(GO) test -fuzz FuzzCandidateIndex -fuzztime 30s -run '^$$' ./internal/fleet/

check: fmt-check build vet race bench-smoke

# Non-test Go lines under internal/ and cmd/: the total, then each
# package directory, largest first. The LoC figures ROADMAP.md and
# CHANGES.md quote come from here.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' | sort | \
		while read -r f; do echo "$$(dirname "$$f") $$(wc -l < "$$f")"; done | \
		awk '{ n[$$1] += $$2; t += $$2 } \
			END { printf "%7d total\n", t; fflush(); for (d in n) printf "%7d %s\n", n[d], d | "sort -rn"; close("sort -rn") }'

fmt:
	gofmt -l -w .

# Fails, listing them, when any Go file is not gofmt-formatted.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
