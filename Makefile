# Developer entry points. `make check` is the gate for every change:
# build, vet, lint (pervalint + gofmt), the full test suite under the
# race detector, and the perfbench module's vet and tests.

GO ?= go

.PHONY: check build vet lint test test-race test-perfbench race-live bench-obs bench-obs-smoke bench-kernel bench-lattice bench-faults bench-shard bench-checker bench-workload bench

check: build vet lint bench-obs-smoke test-race test-perfbench

# The full suite under the race detector, plus the targeted determinism
# and stress regressions. CI runs this in parallel with the lint job.
test-race:
	$(GO) test -race ./...
	$(GO) test -race -run TestTablesByteIdenticalAcrossParallelism ./internal/experiments/ ./internal/runner/
	$(GO) test -race -run 'TestSurveyMatchesOracle|TestSurveyParallelDeterministic' ./internal/lattice/
	$(GO) test -race -run 'TestLiveOverload|TestLiveCrashRecovery|TestLiveRecoveryDrainsMailbox' ./internal/live/
	$(GO) test -race ./internal/faults/ ./internal/network/ -run 'Fault|Crash|Partition|Duplicate|Reorder|FloodDedup'
	$(GO) test -race -run 'TestShard|TestSharded|TestAtPri' ./internal/sim/ ./internal/core/
	$(GO) test -race -run 'TestCheckerTree' ./internal/core/
	$(GO) test -race ./internal/checker/
	$(GO) test -race ./internal/workload/
	$(GO) test -race -run 'RecordReplay' ./internal/scenario/

# perfbench is a nested module outside ./..., so it is vetted and tested
# on its own: a deletion it depends on fails here, not in a benchmark run.
test-perfbench:
	cd perfbench && $(GO) vet . && $(GO) test .

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific invariants over the module-wide call graph
# (determinism + interprocedural taint, clock rules, fast paths,
# hot-path allocations, codec pairing, goroutine hygiene, atomics,
# dead code — see DESIGN.md §1.8) plus a gofmt gate. Suppressions use
# //lint:allow <analyzer>(<reason>); see cmd/pervalint.
# `pervalint -why file:line` explains a determtaint finding.
lint:
	$(GO) run ./cmd/pervalint ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# The live engine is the concurrency-heavy package; run it alone under
# the race detector when iterating on it.
race-live:
	$(GO) test -race -count=2 ./internal/live/...

# Observability overhead benchmarks (see BENCH_obs.json for the
# recorded baseline; the bar is <5% DES-kernel slowdown).
bench-obs:
	$(GO) test -run xxx -bench DESKernel -benchtime 1s -count 5 .

# One-iteration smoke of the same benchmarks: proves the instrumented
# and flight-recorder kernels still run (and the recorder captures
# events) without paying for a real measurement. Part of `make check`.
bench-obs-smoke:
	$(GO) test -run xxx -bench DESKernel -benchtime 1x .

# Kernel fast-path numbers (index-heap event list, zero-alloc hot path,
# parallel runner wall clock); rewrites the recorded BENCH_kernel.json.
bench-kernel:
	$(GO) run ./cmd/benchkernel -o BENCH_kernel.json

# Lattice engine numbers (single-pass Survey vs the recursive-enumerator
# oracle, 4x4 and 6x6 workloads, suite wall clock); rewrites the recorded
# BENCH_lattice.json.
bench-lattice:
	$(GO) run ./cmd/benchlattice -o BENCH_lattice.json

# Fault-injection overhead (nil-injector fast path vs an active plan);
# rewrites the recorded BENCH_faults.json. The bar: a run with no plan
# costs nothing measurable.
bench-faults:
	$(GO) run ./cmd/benchfaults -o BENCH_faults.json

# Sharded-engine scale numbers (legacy dense/race-aware configuration vs
# sparse sharded kernel, shard-count digest identity at p=10240, max-p
# row); rewrites the recorded BENCH_shard.json. Takes ~20s: the legacy
# configuration is measured through p=1024 and projected beyond (its
# O(p^2)-per-strobe race scan would take ~45 minutes at p=10240).
bench-shard:
	$(GO) run ./cmd/benchshard -o BENCH_shard.json

# Checker-tree scale numbers (flat StrobeChecker vs the hierarchical
# checker tree on an aggregate predicate, fan-out sweep, per-aggregator
# memory bound); rewrites the recorded BENCH_checker.json. Takes ~5s:
# the flat checker's O(p)-per-report evaluation is measured directly
# through p=16384.
bench-checker:
	$(GO) run ./cmd/benchchecker -o BENCH_checker.json

# Workload-layer numbers (statistical generator throughput, trace-codec
# bandwidth and bytes/event, record->replay overhead); rewrites the
# recorded BENCH_workload.json. Every row doubles as a round-trip or
# replay-identity check.
bench-workload:
	$(GO) run ./cmd/benchworkload -o BENCH_workload.json

bench: bench-lattice
	$(GO) test -run xxx -bench . -benchtime 1x ./...
