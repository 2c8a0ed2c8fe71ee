package main

import (
	"fmt"
	"time"

	"pervasive/internal/checker"
	"pervasive/internal/clock"
	"pervasive/internal/core"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
)

// The checker suite measures sustained strobe-report throughput at the
// detection root for the flat StrobeChecker vs the checker tree on an
// aggregate predicate (`sum(p) >= K`, the shape whose flat evaluation is
// O(p) per report), a fan-out sweep at p=4096, and the bounded-memory
// claim — the largest aggregator footprint vs the flat checker's
// resident state as the fleet grows 16x at fixed region size. Both
// checkers consume the identical deterministic report stream and their
// detected occurrence lists are compared, so every throughput row
// doubles as a differential check.
const checkerDescription = "hierarchical checker tree (regional aggregators, batched upward sync, " +
	"incremental clause evaluation) vs the flat StrobeChecker on an aggregate " +
	"predicate whose flat evaluation is O(p) per report. Identical deterministic " +
	"report stream everywhere; occurrence lists compared per row."

type checkerThroughputRow struct {
	P       int `json:"p"`
	Fanout  int `json:"fanout"`
	Reports int `json:"reports"`
	// FlatWallMs / TreeWallMs are the wall clocks to push the identical
	// report stream through each checker; Rps columns are reports/sec.
	FlatWallMs float64 `json:"flat_wall_ms"`
	TreeWallMs float64 `json:"tree_wall_ms"`
	FlatRps    float64 `json:"flat_reports_per_sec"`
	TreeRps    float64 `json:"tree_reports_per_sec"`
	Speedup    float64 `json:"speedup"`
	// Identical is the differential check: same occurrence list and
	// applied/stale counters from both checkers on this stream.
	Identical bool `json:"identical_detection"`
	// FlatStateBytes is the flat checker's resident state (O(p));
	// MaxAggBytes the largest single aggregator in the tree.
	FlatStateBytes int `json:"flat_state_bytes"`
	MaxAggBytes    int `json:"max_aggregator_bytes"`
}

type checkerFanoutRow struct {
	P         int     `json:"p"`
	Fanout    int     `json:"fanout"`
	TreeRps   float64 `json:"tree_reports_per_sec"`
	Batches   int64   `json:"batches"`
	Coalesced int64   `json:"coalesced"`
	WireBytes int64   `json:"wire_bytes"`
	Identical bool    `json:"identical_detection"`
}

type checkerReport struct {
	stamp
	Throughput []checkerThroughputRow `json:"throughput"`
	FanoutAt4K []checkerFanoutRow     `json:"fanout_sweep_p4096"`

	// SpeedupAt4096 is the tree-over-flat throughput ratio at p=4096
	// (the acceptance bar is >= 3x at p >= 4096).
	SpeedupAt4096 float64 `json:"speedup_at_p4096"`
	SpeedupPass   bool    `json:"speedup_pass"`
	// AggSublinearRatio is (max aggregator bytes ratio)/(p ratio)
	// between the largest and smallest rows at fixed region size;
	// < 1 means per-aggregator memory is sublinear in p.
	AggSublinearRatio float64 `json:"agg_sublinear_ratio"`
	SublinearPass     bool    `json:"agg_sublinear_pass"`
	IdenticalAll      bool    `json:"identical_everywhere"`
	Notes             string  `json:"notes"`
}

// reportStream replays the deterministic synthetic workload into sink:
// rounds full sweeps of the fleet, every process toggling its value each
// round, seq and time strictly advancing. Returns the report count.
func reportStream(p, rounds int, sink func(proc, seq int, v float64, at sim.Time)) int {
	at := sim.Time(0)
	n := 0
	for round := 0; round < rounds; round++ {
		for proc := 0; proc < p; proc++ {
			at++
			n++
			sink(proc, round+1, float64((proc+round)%2), at)
		}
	}
	return n
}

// aggregatePred is the detection predicate: flat evaluation walks all p
// processes per applied report; the tree folds each report into running
// clause totals in O(1).
func aggregatePred(p int) predicate.Cond {
	return predicate.MustParse(fmt.Sprintf("sum(p) >= %d", p/3))
}

func runFlat(p, rounds int) (wallMs float64, digest string, stateBytes int, reports int) {
	c := core.NewScalarChecker(p, aggregatePred(p))
	start := time.Now()
	reports = reportStream(p, rounds, func(proc, seq int, v float64, at sim.Time) {
		c.OnStrobe(core.StrobeMsg{
			Proc: proc, Seq: seq, Var: "p", Value: v,
			Sparse: clock.SparseStamp{{Proc: proc, Val: uint64(seq)}},
		}, at)
	})
	c.Finish(sim.Time(reports + 1))
	wallMs = ms(time.Since(start))
	digest = fmt.Sprint(c.Occurrences(), c.Applied, c.Stale)
	return wallMs, digest, c.StateBytes(), reports
}

func runTree(p, fanout, rounds int) (wallMs float64, digest string, tr *checker.Tree) {
	tr = checker.New(checker.Config{N: p, Pred: aggregatePred(p), Fanout: fanout})
	start := time.Now()
	reports := reportStream(p, rounds, func(proc, seq int, v float64, at sim.Time) {
		tr.OnReport(checker.Report{
			Proc: proc, Seq: seq, Var: "p", Value: v,
			Sparse: clock.SparseStamp{{Proc: proc, Val: uint64(seq)}},
		}, at)
	})
	tr.Finish(sim.Time(reports + 1))
	wallMs = ms(time.Since(start))
	digest = fmt.Sprint(tr.Occurrences(), tr.Stat.Applied, tr.Stat.Stale)
	return wallMs, digest, tr
}

func runChecker(st stamp) (any, string) {
	rps := func(n int, ms float64) float64 { return float64(n) / (ms / 1000) }
	r := checkerReport{stamp: st, IdenticalAll: true}

	// Main curve: fixed region size (256 processes per aggregator), report
	// volume scaled down as p grows so the flat checker's O(p·reports)
	// work stays measurable in one sitting.
	type point struct{ p, rounds int }
	for _, pt := range []point{{1024, 16}, {4096, 4}, {16384, 1}} {
		fanout := pt.p / 256
		flatMs, flatDigest, flatBytes, n := runFlat(pt.p, pt.rounds)
		treeMs, treeDigest, tr := runTree(pt.p, fanout, pt.rounds)
		row := checkerThroughputRow{
			P: pt.p, Fanout: fanout, Reports: n,
			FlatWallMs: flatMs, TreeWallMs: treeMs,
			FlatRps: rps(n, flatMs), TreeRps: rps(n, treeMs),
			Speedup:        flatMs / treeMs,
			Identical:      flatDigest == treeDigest,
			FlatStateBytes: flatBytes, MaxAggBytes: tr.MaxAggregatorBytes(),
		}
		if !row.Identical {
			r.IdenticalAll = false
		}
		r.Throughput = append(r.Throughput, row)
		progress("p=%d R=%d: flat %.0fms, tree %.0fms (%.1fx), identical=%v, maxagg %d B",
			pt.p, fanout, flatMs, treeMs, row.Speedup, row.Identical, row.MaxAggBytes)
		if pt.p == 4096 {
			r.SpeedupAt4096 = row.Speedup
		}
	}
	r.SpeedupPass = r.SpeedupAt4096 >= 3

	// Fan-out sweep at p=4096: how regional width trades batching against
	// per-aggregator span (digest compared against the flat run).
	_, flatDigest, _, _ := runFlat(4096, 4)
	for _, fanout := range []int{2, 8, 32, 128} {
		treeMs, treeDigest, tr := runTree(4096, fanout, 4)
		n := 4096 * 4
		row := checkerFanoutRow{
			P: 4096, Fanout: fanout, TreeRps: rps(n, treeMs),
			Batches: tr.Stat.Batches, Coalesced: tr.Stat.Coalesced,
			WireBytes: tr.Stat.WireBytes,
			Identical: treeDigest == flatDigest,
		}
		if !row.Identical {
			r.IdenticalAll = false
		}
		r.FanoutAt4K = append(r.FanoutAt4K, row)
		progress("fanout sweep p=4096 R=%d: %.0f reports/s, %d batches, identical=%v",
			fanout, row.TreeRps, row.Batches, row.Identical)
	}

	first, last := r.Throughput[0], r.Throughput[len(r.Throughput)-1]
	pRatio := float64(last.P) / float64(first.P)
	aRatio := float64(last.MaxAggBytes) / float64(first.MaxAggBytes)
	r.AggSublinearRatio = aRatio / pRatio
	r.SublinearPass = r.AggSublinearRatio < 1

	r.Notes = fmt.Sprintf(
		"Flat evaluation of sum(p) walks all p processes per applied report "+
			"(O(p*reports) total); the tree folds each report into running clause "+
			"totals in O(1) and syncs watermarks upward in delta-coded batches. "+
			"Measured speedup at p=4096: %.1fx (bar: >=3x). Per-aggregator memory "+
			"at fixed region size grows %.3fx per p doubling-ratio (bar: <1, i.e. "+
			"sublinear in p); the flat checker's state is O(p) by construction "+
			"(%d B at p=%d vs %d B per aggregator). Detection output identical "+
			"on every row: %v.",
		r.SpeedupAt4096, r.AggSublinearRatio,
		last.FlatStateBytes, last.P, last.MaxAggBytes, r.IdenticalAll)

	return r, fmt.Sprintf("p=4096: %.1fx vs flat; identical=%v; agg sublinear %.3f",
		r.SpeedupAt4096, r.IdenticalAll, r.AggSublinearRatio)
}
