# Developer entry points. `make check` is the gate for every change:
# build, vet, lint (pervalint + gofmt), the full test suite under the
# race detector, and the perfbench module's vet and tests.

GO ?= go

# The suites cmd/bench records, one BENCH_<suite>.json each.
BENCH_SUITES := kernel lattice faults shard checker workload

.PHONY: check build vet lint test test-race test-perfbench race-live bench-obs bench-obs-smoke $(addprefix bench-,$(BENCH_SUITES)) fuzz-smoke bench

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

# Recorded benchmark suites: `make bench-<suite>` rewrites
# BENCH_<suite>.json via cmd/bench (see its doc comment for what each
# suite measures). A static pattern rule, because implicit rules never
# apply to .PHONY targets.
$(addprefix bench-,$(BENCH_SUITES)): bench-%:
	$(GO) run ./cmd/bench $*

# Ten seconds of fuzzing on each hostile-input decoder (the workload
# trace codec, the strobe-stamp batch codec, the checker-tree sync
# batch and the flight dump JSONL) and on each text parser (fault
# plans, predicates, temporal-logic formulas and workload specs). CI
# runs it in the test job.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/workload/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeStampBatch$$' -fuzztime 10s ./internal/clock/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime 10s ./internal/checker/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeJSONL$$' -fuzztime 10s ./internal/flight/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/faults/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/predicate/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/tl/
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s ./internal/workload/

bench: bench-lattice
	$(GO) test -run xxx -bench . -benchtime 1x ./...
