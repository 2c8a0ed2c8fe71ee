package core

import (
	"testing"

	"pervasive/internal/clock"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
)

// ivmsg builds an IntervalMsg with literal stamps.
func ivmsg(proc, idx int, open, close clock.Vector, openAt, closeAt int64) IntervalMsg {
	return IntervalMsg{
		Proc: proc, Index: idx, Open: open, Close: close,
		OpenAt: sim.Time(openAt), CloseAt: sim.Time(closeAt),
	}
}

func TestConjunctiveDefinitelyDetects(t *testing.T) {
	c := NewConjunctiveChecker(2, predicate.Definitely)
	// Cross-linked intervals: each opens before the other closes (message
	// exchange visible in the stamps) → Definitely overlap.
	c.OnInterval(ivmsg(0, 0, clock.Vector{1, 0}, clock.Vector{3, 2}, 100, 300), 0)
	if len(c.Occurrences()) != 0 {
		t.Fatal("fired with one queue empty")
	}
	c.OnInterval(ivmsg(1, 0, clock.Vector{0, 1}, clock.Vector{2, 3}, 120, 280), 0)
	occ := c.Occurrences()
	if len(occ) != 1 {
		t.Fatalf("occurrences %v", occ)
	}
	if occ[0].Start != 120 || occ[0].End != 280 {
		t.Fatalf("occurrence extent %+v", occ[0])
	}
	if occ[0].Borderline {
		t.Fatal("definite detection flagged borderline")
	}
}

func TestConjunctiveDefinitelyRejectsConcurrent(t *testing.T) {
	c := NewConjunctiveChecker(2, predicate.Definitely)
	// Fully concurrent intervals: possibly overlap, not definitely.
	c.OnInterval(ivmsg(0, 0, clock.Vector{1, 0}, clock.Vector{2, 0}, 100, 200), 0)
	c.OnInterval(ivmsg(1, 0, clock.Vector{0, 1}, clock.Vector{0, 2}, 100, 200), 0)
	if len(c.Occurrences()) != 0 {
		t.Fatalf("Definitely fired on concurrent intervals: %v", c.Occurrences())
	}
}

func TestConjunctivePossiblyFiresOnConcurrent(t *testing.T) {
	c := NewConjunctiveChecker(2, predicate.Possibly)
	c.OnInterval(ivmsg(0, 0, clock.Vector{1, 0}, clock.Vector{2, 0}, 100, 200), 0)
	c.OnInterval(ivmsg(1, 0, clock.Vector{0, 1}, clock.Vector{0, 2}, 100, 200), 0)
	occ := c.Occurrences()
	if len(occ) != 1 {
		t.Fatalf("Possibly missed concurrent intervals: %v", occ)
	}
	if !occ[0].Borderline {
		t.Fatal("possibly-but-not-definitely must be borderline")
	}
}

func TestConjunctivePossiblyPrunesPrecedence(t *testing.T) {
	c := NewConjunctiveChecker(2, predicate.Possibly)
	// p0's first interval wholly precedes p1's interval; its second
	// overlaps.
	c.OnInterval(ivmsg(0, 0, clock.Vector{1, 0}, clock.Vector{2, 0}, 0, 50), 0)
	c.OnInterval(ivmsg(0, 1, clock.Vector{3, 0}, clock.Vector{4, 0}, 100, 200), 0)
	// p1's interval opened after seeing p0's second... give it stamps
	// concurrent with interval 1 but after interval 0.
	c.OnInterval(ivmsg(1, 0, clock.Vector{2, 1}, clock.Vector{2, 2}, 110, 190), 0)
	occ := c.Occurrences()
	if len(occ) != 1 {
		t.Fatalf("occurrences %v", occ)
	}
	if occ[0].Start != 110 {
		t.Fatalf("matched wrong interval: %+v", occ[0])
	}
}

func TestConjunctiveEveryOccurrence(t *testing.T) {
	c := NewConjunctiveChecker(2, predicate.Definitely)
	// Three successive definitely-overlapping pairs, linked by exchanges.
	base := uint64(0)
	for k := 0; k < 3; k++ {
		o0 := clock.Vector{base + 1, base}
		c0 := clock.Vector{base + 3, base + 2}
		o1 := clock.Vector{base, base + 1}
		c1 := clock.Vector{base + 2, base + 3}
		c.OnInterval(ivmsg(0, k, o0, c0, int64(100*k)+10, int64(100*k)+90), 0)
		c.OnInterval(ivmsg(1, k, o1, c1, int64(100*k)+20, int64(100*k)+80), 0)
		base += 4
	}
	if c.matches != 3 {
		t.Fatalf("matches %d want 3 (no hang after the first!)", c.matches)
	}
}

func TestConjunctiveOnceSemantics(t *testing.T) {
	c := NewConjunctiveChecker(2, predicate.Definitely)
	c.Once = true
	base := uint64(0)
	for k := 0; k < 3; k++ {
		o0 := clock.Vector{base + 1, base}
		c0 := clock.Vector{base + 3, base + 2}
		o1 := clock.Vector{base, base + 1}
		c1 := clock.Vector{base + 2, base + 3}
		c.OnInterval(ivmsg(0, k, o0, c0, int64(100*k)+10, int64(100*k)+90), 0)
		c.OnInterval(ivmsg(1, k, o1, c1, int64(100*k)+20, int64(100*k)+80), 0)
		base += 4
	}
	if c.matches != 1 {
		t.Fatalf("detect-once matched %d", c.matches)
	}
}

func TestConjunctiveOutOfOrderAndDuplicates(t *testing.T) {
	c := NewConjunctiveChecker(2, predicate.Definitely)
	// Proc 0's intervals arrive out of order (index 1 first), plus a
	// duplicate; proc 1 waits. Both p0 intervals definitely-overlap p1's
	// long interval, so both match, in index order.
	c.OnInterval(ivmsg(0, 1, clock.Vector{3, 1}, clock.Vector{4, 1}, 100, 200), 0)
	c.OnInterval(ivmsg(0, 0, clock.Vector{1, 1}, clock.Vector{2, 1}, 0, 50), 0)
	c.OnInterval(ivmsg(0, 0, clock.Vector{1, 1}, clock.Vector{2, 1}, 0, 50), 0)
	// p1's interval spans everything: Open before all, Close after all.
	c.OnInterval(ivmsg(1, 0, clock.Vector{0, 1}, clock.Vector{4, 2}, 0, 300), 0)
	occ := c.Occurrences()
	if len(occ) != 2 {
		t.Fatalf("occurrences %v", occ)
	}
	if occ[0].Start != 0 || occ[1].Start != 100 {
		t.Fatalf("order wrong: %v", occ)
	}
}

func TestConjunctiveIgnoresConsumedIndices(t *testing.T) {
	c := NewConjunctiveChecker(1, predicate.Definitely)
	c.OnInterval(ivmsg(0, 0, clock.Vector{1}, clock.Vector{2}, 0, 50), 0)
	// Index 0 was consumed (matched); a late duplicate must be dropped.
	c.OnInterval(ivmsg(0, 0, clock.Vector{1}, clock.Vector{2}, 0, 50), 0)
	if c.matches != 1 {
		t.Fatalf("matches %d", c.matches)
	}
}

func TestConjunctiveCheckerPanicsOnInstantaneously(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewConjunctiveChecker(2, predicate.Instantaneously)
}
