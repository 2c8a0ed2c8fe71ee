package main

import (
	"fmt"
	"runtime"
	"testing"

	"pervasive/internal/sim"
)

const kernelDescription = "allocation-free DES kernel fast path: hand-rolled 4-ary min-heap " +
	"of event values (internal/sim) plus reused checker scratch buffers " +
	"(internal/core), vs the previous container/heap kernel with boxed *Timer " +
	"events. The micro-benchmark is BenchmarkKernelScheduleStep from bench_test.go; " +
	"suite timings run the E1-E16+A1-A6 experiment suite in-process."

// kernelBefore is the baseline recorded immediately prior to the
// index-heap kernel and checker scratch-buffer changes (container/heap
// event list, *Timer boxing, Clone-per-recon checker).
var kernelBefore = kernelNumbers{
	ScheduleStepNsOp:     306,
	ScheduleStepAllocsOp: 2,
	ScheduleStepBytesOp:  48,
	QuickSuiteMs:         221,
	FullSuiteMs:          2962,
}

type kernelNumbers struct {
	ScheduleStepNsOp     float64 `json:"schedule_step_ns_op"`
	ScheduleStepAllocsOp int64   `json:"schedule_step_allocs_op"`
	ScheduleStepBytesOp  int64   `json:"schedule_step_bytes_op"`
	QuickSuiteMs         int64   `json:"quick_suite_ms"`
	FullSuiteMs          int64   `json:"full_suite_ms,omitempty"`
}

type kernelReport struct {
	stamp
	Before            kernelNumbers `json:"before"`
	After             kernelNumbers `json:"after"`
	AllocReductionPct float64       `json:"alloc_reduction_pct"`
	BarAllocPct       float64       `json:"bar_alloc_reduction_pct"`
	AllocPass         bool          `json:"alloc_pass"`
	ParallelWorkers   int           `json:"parallel_workers"`
	ParallelQuickMs   int64         `json:"parallel_quick_ms"`
	ParallelSpeedup   float64       `json:"parallel_speedup"`
	Notes             string        `json:"notes"`
}

// benchScheduleStep mirrors BenchmarkKernelScheduleStep: a steady-state
// population of self-rescheduling events, one Step per op.
func benchScheduleStep(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine(1)
	var fn sim.Handler
	fn = func(now sim.Time) { e.At(now+sim.Duration(1+now%7), fn) }
	for i := 0; i < 1024; i++ {
		e.At(sim.Time(i%13), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func runKernel(st stamp) (any, string) {
	workers := runtime.GOMAXPROCS(0)
	step := testing.Benchmark(benchScheduleStep)
	seqMs := suiteMs(true, 1, 1)
	parMs := suiteMs(true, workers, 1)
	fullMs := suiteMs(false, 1, 1)

	after := kernelNumbers{
		ScheduleStepNsOp:     float64(step.NsPerOp()),
		ScheduleStepAllocsOp: step.AllocsPerOp(),
		ScheduleStepBytesOp:  step.AllocedBytesPerOp(),
		QuickSuiteMs:         seqMs,
		FullSuiteMs:          fullMs,
	}
	reduction := 100 * float64(kernelBefore.ScheduleStepAllocsOp-after.ScheduleStepAllocsOp) /
		float64(kernelBefore.ScheduleStepAllocsOp)

	r := kernelReport{
		stamp:             st,
		Before:            kernelBefore,
		After:             after,
		AllocReductionPct: reduction,
		BarAllocPct:       30,
		AllocPass:         reduction >= 30,
		ParallelWorkers:   workers,
		ParallelQuickMs:   parMs,
		ParallelSpeedup:   float64(seqMs) / float64(parMs),
		Notes: "The before block is a historical recording from a single-CPU host when the " +
			"suite was E1-E12+A1-A7, so only its micro-benchmark allocation counts compare " +
			"with the after block; suite timings do not. The kernel has no timer " +
			"cancellation, so there is no cancel-churn row. parallel_quick_ms is one pass of " +
			"the quick suite on GOMAXPROCS workers (gomaxprocs field above), so " +
			"parallel_speedup is bounded by that core count. Output tables are " +
			"byte-identical at every worker count (see TestTablesByteIdenticalAcrossParallelism).",
	}
	return r, fmt.Sprintf("alloc reduction %.0f%%, quick suite %dms seq / %dms on %d workers",
		reduction, seqMs, parMs, workers)
}
