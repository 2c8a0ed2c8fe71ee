// Package intervals implements the interval-algebra substrate for the
// paper's specification design space (Section 3.1):
//
//   - Allen's 13 relations between intervals on a single time axis
//     (Section 3.1.1.a.ii, [1, 15]), used for relative timing relations
//     such as "X before Y" or "X overlaps Y";
//   - causality-based relations between intervals in a partial order
//     (Section 3.1.1.b.i, [7, 8, 20, 21]), including the Possibly- and
//     Definitely-overlap modalities [10] and the endpoint-bit
//     classification underlying the fine-grained relation suite.
package intervals

import (
	"pervasive/internal/sim"
)

// Span is a half-open interval [Lo, Hi) on a single (totally ordered) time
// axis. Spans with Hi <= Lo are empty.
type Span struct {
	Lo, Hi sim.Time
}

// Empty reports whether the span contains no instants.
func (s Span) Empty() bool { return s.Hi <= s.Lo }

// Allen is one of Allen's 13 interval relations.
type Allen int

// The 13 relations. X rel Y reads left to right: e.g. Before means X is
// strictly before Y with a gap; Meets means X ends exactly where Y starts.
const (
	Before Allen = iota
	Meets
	Overlaps
	Starts
	During
	Finishes
	Equals
	FinishedBy
	Contains
	StartedBy
	OverlappedBy
	MetBy
	After
)

var allenNames = [...]string{
	"before", "meets", "overlaps", "starts", "during", "finishes",
	"equals", "finished-by", "contains", "started-by", "overlapped-by",
	"met-by", "after",
}

// String returns the relation's conventional name.
func (a Allen) String() string {
	if a < 0 || int(a) >= len(allenNames) {
		return "invalid"
	}
	return allenNames[a]
}

// Classify returns the Allen relation of x to y. Both spans must be
// non-empty; classifying an empty span panics, since Allen's algebra is
// defined on proper intervals only.
func Classify(x, y Span) Allen {
	if x.Empty() || y.Empty() {
		panic("intervals: Allen classification of empty span")
	}
	switch {
	case x.Hi < y.Lo:
		return Before
	case x.Hi == y.Lo:
		return Meets
	case x.Lo > y.Hi:
		return After
	case x.Lo == y.Hi:
		return MetBy
	}
	// The spans properly intersect; discriminate on endpoint order.
	switch {
	case x.Lo == y.Lo && x.Hi == y.Hi:
		return Equals
	case x.Lo == y.Lo && x.Hi < y.Hi:
		return Starts
	case x.Lo == y.Lo: // x.Hi > y.Hi
		return StartedBy
	case x.Hi == y.Hi && x.Lo > y.Lo:
		return Finishes
	case x.Hi == y.Hi: // x.Lo < y.Lo
		return FinishedBy
	case x.Lo > y.Lo && x.Hi < y.Hi:
		return During
	case x.Lo < y.Lo && x.Hi > y.Hi:
		return Contains
	case x.Lo < y.Lo:
		return Overlaps
	default:
		return OverlappedBy
	}
}

// Intersects reports whether the spans share at least one instant.
func Intersects(x, y Span) bool {
	return !x.Empty() && !y.Empty() && x.Lo < y.Hi && y.Lo < x.Hi
}
