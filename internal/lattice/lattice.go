// Package lattice implements the global-state lattice machinery of the
// paper's Section 4.2.4: consistent cuts of a distributed execution, the
// size and shape of the lattice they form, the sub-lattice induced by
// strobe-clock control messages, and the single path that the physical
// world's execution actually traces through it.
//
// An execution is given as, per process, the sequence of vector timestamps
// of its relevant events. A cut assigns each process a prefix length; the
// cut is consistent iff no included event "knows" an excluded event — the
// standard vector-clock characterization. The same test applied to strobe
// vector stamps yields exactly the sub-lattice induced by the strobes'
// artificial causality, which is how the slim lattice postulate is
// quantified (experiment E3).
package lattice

import (
	"fmt"
	"sort"
	"sync/atomic"

	"pervasive/internal/clock"
	"pervasive/internal/sim"
)

// Execution is the per-process event stamp matrix. Stamps[i][k] is the
// vector timestamp of the (k+1)-th relevant event of process i. Times, if
// non-nil, carries the true occurrence times of the same events (used to
// trace the actual path).
type Execution struct {
	Stamps [][]clock.Vector
	Times  [][]sim.Time

	// surveyPrep caches the survey engine's preprocessing of Stamps
	// (sparse constraint rows, cut-key packing geometry); it is built
	// lazily on the first lattice statistic and assumes Stamps are not
	// mutated afterwards. See survey.go.
	surveyPrep atomic.Pointer[surveyPrep]
}

// N returns the number of processes.
func (e *Execution) N() int { return len(e.Stamps) }

// Events returns the total number of events.
func (e *Execution) Events() int {
	total := 0
	for _, s := range e.Stamps {
		total += len(s)
	}
	return total
}

// NumCuts returns the total number of cuts, consistent or not:
// ∏ (p_i + 1). It saturates at math.MaxInt64 / 2 to avoid overflow.
func (e *Execution) NumCuts() int64 {
	const sat = int64(1) << 62
	total := int64(1)
	for _, s := range e.Stamps {
		total *= int64(len(s) + 1)
		if total < 0 || total > sat {
			return sat
		}
	}
	return total
}

// ConsistentCut reports whether the cut (one included-prefix length per
// process) is consistent: for every included event, every event it knows
// about is also included.
func (e *Execution) ConsistentCut(cut []int) bool {
	if len(cut) != e.N() {
		panic("lattice: cut length mismatch")
	}
	for i, ci := range cut {
		if ci < 0 || ci > len(e.Stamps[i]) {
			panic(fmt.Sprintf("lattice: cut[%d]=%d out of range", i, ci))
		}
		if ci == 0 {
			continue
		}
		stamp := e.Stamps[i][ci-1]
		for j, cj := range cut {
			var known uint64
			if j < len(stamp) {
				known = stamp[j]
			}
			if known > uint64(cj) {
				return false
			}
		}
	}
	return true
}

// Enumerate calls fn for every consistent cut, in lexicographic order,
// stopping early if fn returns false or after limit cuts (limit <= 0
// means no limit). It returns the number of consistent cuts visited.
// Enumeration prunes: a partial assignment that is already pairwise
// inconsistent is never extended.
//
// Enumerate is the legacy recursive enumerator, retained as the
// differential-testing oracle for the level-synchronous Survey engine
// (see survey.go and TestSurveyMatchesOracle). Every statistic consumer
// should use Survey, which walks the lattice once with an incremental
// O(n) consistency check instead of once per statistic with an O(n²)
// pairwise check.
func (e *Execution) Enumerate(limit int64, fn func(cut []int) bool) int64 {
	n := e.N()
	cut := make([]int, n)
	var count int64
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			count++
			if fn != nil && !fn(cut) {
				return false
			}
			return limit <= 0 || count < limit
		}
		for ci := 0; ci <= len(e.Stamps[i]); ci++ {
			cut[i] = ci
			if !e.partialConsistent(cut, i) {
				continue
			}
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
	return count
}

// partialConsistent checks consistency of cut[0..upto] pairwise, in both
// directions, ignoring unassigned processes.
func (e *Execution) partialConsistent(cut []int, upto int) bool {
	ci := cut[upto]
	if ci > 0 {
		stamp := e.Stamps[upto][ci-1]
		for j := 0; j <= upto; j++ {
			var known uint64
			if j < len(stamp) {
				known = stamp[j]
			}
			if known > uint64(cut[j]) {
				return false
			}
		}
	}
	for j := 0; j < upto; j++ {
		if cut[j] == 0 {
			continue
		}
		stamp := e.Stamps[j][cut[j]-1]
		if upto < len(stamp) && stamp[upto] > uint64(ci) {
			return false
		}
	}
	return true
}

// Path returns the sequence of cuts the execution actually traversed in
// true time, from the empty cut to the full cut — the "one path through np
// of the O(p^n) states" of Section 4.2.4. It requires Times. Simultaneous
// events advance the cut together.
func (e *Execution) Path() [][]int {
	if e.Times == nil {
		panic("lattice: Path requires event times")
	}
	type ev struct {
		at   sim.Time
		proc int
	}
	var evs []ev
	for i, ts := range e.Times {
		for _, at := range ts {
			evs = append(evs, ev{at: at, proc: i})
		}
	}
	// stable sort keeps equal times deterministic (construction order)
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].at < evs[b].at })
	cut := make([]int, e.N())
	path := [][]int{append([]int(nil), cut...)}
	for k := 0; k < len(evs); {
		at := evs[k].at
		for k < len(evs) && evs[k].at == at {
			cut[evs[k].proc]++
			k++
		}
		path = append(path, append([]int(nil), cut...))
	}
	return path
}

// PathConsistentAlong is PathConsistent over an already computed path;
// callers that hold the Path() result avoid re-sorting the event times.
func (e *Execution) PathConsistentAlong(path [][]int) bool {
	for _, cut := range path {
		if !e.ConsistentCut(cut) {
			return false
		}
	}
	return true
}
