package main

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"pervasive/internal/clock"
	"pervasive/internal/lattice"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

const latticeDescription = "level-synchronous lattice Survey (canonical-predecessor BFS over packed " +
	"uint64 cut keys with an O(n) SWAR consistency check) vs the retained recursive " +
	"enumerator, on the n=4,p=4 count+width workload and the full 7^6 = 117649-cut " +
	"n=6,p=6 grid. Lattice 'before' numbers are the oracle measured live in this run; " +
	"suite baselines are the pre-Survey recordings from BENCH_kernel.json."

// latticeReps is the number of benchmark repetitions per 4x4 median.
const latticeReps = 5

// preSurveySuite is the experiment-suite wall clock recorded immediately
// before the Survey engine landed (see BENCH_kernel.json "after"), when
// E3 still swept only n=4,p=4 — the larger block was intractable under
// the recursive enumerator.
var preSurveySuite = struct{ quickMs, fullMs int64 }{quickMs: 106, fullMs: 2137}

// strobedExecution mirrors the internal/lattice benchmark workload: n
// processes of p events each in round-robin order, every event merging a
// random earlier strobe with probability 0.7 before publishing its own.
func strobedExecution(seed uint64, n, p int) *lattice.Execution {
	r := stats.NewRNG(seed)
	e := &lattice.Execution{
		Stamps: make([][]clock.Vector, n),
		Times:  make([][]sim.Time, n),
	}
	clocks := make([]*clock.StrobeVector, n)
	for i := range clocks {
		clocks[i] = clock.NewStrobeVector(i, n)
	}
	var published []clock.Vector
	for step := 0; step < n*p; step++ {
		i := step % n
		if len(published) > 0 && r.Bool(0.7) {
			clocks[i].OnStrobe(published[r.Intn(len(published))])
		}
		v := clocks[i].Strobe()
		published = append(published, v)
		e.Stamps[i] = append(e.Stamps[i], v)
		e.Times[i] = append(e.Times[i], sim.Time(step))
	}
	return e
}

// independent builds the full (p+1)ⁿ grid: every stamp knows only its own
// process, so every cut is consistent.
func independent(n, p int) *lattice.Execution {
	e := &lattice.Execution{Stamps: make([][]clock.Vector, n)}
	for i := 0; i < n; i++ {
		for k := 1; k <= p; k++ {
			v := clock.NewVector(n)
			v[i] = uint64(k) //lint:allow clockrule(synthetic benchmark stamps built offline, not live protocol state)
			e.Stamps[i] = append(e.Stamps[i], v)
		}
	}
	return e
}

// oracleCountWidth reproduces the pre-Survey statistics path: one full
// recursive enumeration for the count, a second for the level sizes.
func oracleCountWidth(e *lattice.Execution, sizes []int64) (int64, int64) {
	count := e.Enumerate(0, nil)
	for l := range sizes {
		sizes[l] = 0
	}
	e.Enumerate(0, func(cut []int) bool {
		level := 0
		for _, c := range cut {
			level += c
		}
		sizes[level]++
		return true
	})
	var width int64
	for _, s := range sizes {
		if s > width {
			width = s
		}
	}
	return count, width
}

// medianNs runs a benchmark k times and returns the median ns/op; the
// speedup ratios are computed from within-run medians, which shared
// hardware jitters far less than single samples.
func medianNs(k int, f func(b *testing.B)) float64 {
	v := make([]float64, k)
	for i := range v {
		v[i] = float64(testing.Benchmark(f).NsPerOp())
	}
	sort.Float64s(v)
	return v[k/2]
}

type latticeNumbers struct {
	CountWidth4x4NsOp     float64 `json:"count_width_4x4_ns_op"`
	CountWidth4x4AllocsOp int64   `json:"count_width_4x4_allocs_op"`
	Full6x6Ms             float64 `json:"full_6x6_ms"`
	QuickSuiteMs          int64   `json:"quick_suite_ms"`
	FullSuiteMs           int64   `json:"full_suite_ms"`
}

type latticeReport struct {
	stamp
	Before         latticeNumbers `json:"before"`
	After          latticeNumbers `json:"after"`
	Speedup4x4     float64        `json:"speedup_4x4"`
	BarSpeedup     float64        `json:"bar_speedup_4x4"`
	SpeedupPass    bool           `json:"speedup_pass"`
	Speedup6x6     float64        `json:"speedup_6x6"`
	Parallel6x6Ms  float64        `json:"parallel_6x6_ms"`
	ParallelDegree int            `json:"parallel_degree"`
	Notes          string         `json:"notes"`
}

func runLattice(st stamp) (any, string) {
	workers := runtime.GOMAXPROCS(0)
	e44 := strobedExecution(3, 4, 4)
	e66 := independent(6, 6)
	sizes44 := make([]int64, e44.Events()+1)
	sizes66 := make([]int64, e66.Events()+1)

	oracle44 := medianNs(latticeReps, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			oracleCountWidth(e44, sizes44)
		}
	})
	survey44 := medianNs(latticeReps, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e44.Survey(lattice.SurveyOptions{})
		}
	})
	allocs44 := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e44.Survey(lattice.SurveyOptions{})
		}
	}).AllocsPerOp()
	oracle66 := medianNs(3, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			oracleCountWidth(e66, sizes66)
		}
	})
	survey66 := medianNs(3, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e66.Survey(lattice.SurveyOptions{})
		}
	})
	par66 := medianNs(3, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e66.Survey(lattice.SurveyOptions{Parallelism: workers})
		}
	})

	quickMs := suiteMs(true, 1, 3)
	fullMs := suiteMs(false, 1, 3)

	r := latticeReport{
		stamp: st,
		Before: latticeNumbers{
			CountWidth4x4NsOp:     oracle44,
			CountWidth4x4AllocsOp: -1, // enumerator path not alloc-tracked
			Full6x6Ms:             oracle66 / 1e6,
			QuickSuiteMs:          preSurveySuite.quickMs,
			FullSuiteMs:           preSurveySuite.fullMs,
		},
		After: latticeNumbers{
			CountWidth4x4NsOp:     survey44,
			CountWidth4x4AllocsOp: allocs44,
			Full6x6Ms:             survey66 / 1e6,
			QuickSuiteMs:          quickMs,
			FullSuiteMs:           fullMs,
		},
		Speedup4x4:     oracle44 / survey44,
		BarSpeedup:     5,
		SpeedupPass:    oracle44/survey44 >= 5,
		Speedup6x6:     oracle66 / survey66,
		Parallel6x6Ms:  par66 / 1e6,
		ParallelDegree: workers,
		Notes: "Compare within-run ratios (speedup fields), not absolute ns across runs. " +
			"Suite timings are not like-for-like: the before numbers are recordings from an " +
			"earlier single-CPU run of a smaller suite, without the E3 n=6,p=6 block (30 " +
			"extra (regime, seed) jobs of up to 10^5 cuts each) that the enumerator could " +
			"not afford and without E13-E16. The parallel 6x6 Survey runs on GOMAXPROCS " +
			"workers (parallel_degree).",
	}
	return r, fmt.Sprintf("4x4 count+width %.0fns -> %.0fns, %.1fx; 6x6 %.1fms -> %.1fms; full suite %dms",
		oracle44, survey44, oracle44/survey44, oracle66/1e6, survey66/1e6, fullMs)
}
