package intervals

import "pervasive/internal/clock"

// POInterval is an interval of a process's execution in a partial order of
// events: Start and End are the vector timestamps of its first and last
// events. A valid interval has Start ≤ End in the vector order.
type POInterval struct {
	Proc       int
	Start, End clock.Vector
}

// Valid reports Start ≤ End.
//
//lint:allow deadcode(paper model: partial-order interval relations, DESIGN §1.2)
func (iv POInterval) Valid() bool {
	r := iv.Start.Compare(iv.End)
	return r == clock.Before || r == clock.Same
}

// Precedes reports that x wholly precedes y: x's last event happens-before
// y's first event, so in every consistent observation x ends before y
// starts.
func Precedes(x, y POInterval) bool {
	return x.End.HappensBefore(y.Start)
}

// PossiblyOverlap reports the Possibly(overlap) modality [10]: there is at
// least one consistent observation in which x and y intersect, i.e.
// neither wholly precedes the other.
//
//lint:allow deadcode(paper model: partial-order interval relations, DESIGN §1.2)
func PossiblyOverlap(x, y POInterval) bool {
	return !Precedes(x, y) && !Precedes(y, x)
}

// DefinitelyOverlap reports the Definitely(overlap) modality [10]: the
// intervals intersect in every consistent observation. This holds exactly
// when each interval's start happens-before the other's end.
func DefinitelyOverlap(x, y POInterval) bool {
	return x.Start.HappensBefore(y.End) && y.Start.HappensBefore(x.End)
}

// Relation is the coarse classification of an interval pair in the
// partial order.
type Relation int

// Coarse relation values.
const (
	RelPrecedes Relation = iota // x wholly precedes y
	RelPrecededBy
	RelDefinitelyOverlap
	RelPossiblyOverlap // overlap in some but not all observations
)

// String names the relation.
func (r Relation) String() string {
	switch r {
	case RelPrecedes:
		return "precedes"
	case RelPrecededBy:
		return "preceded-by"
	case RelDefinitelyOverlap:
		return "definitely-overlap"
	default:
		return "possibly-overlap"
	}
}

// Classify returns the coarse partial-order relation between x and y.
//
//lint:allow deadcode(paper model: partial-order interval relations, DESIGN §1.2)
func ClassifyPO(x, y POInterval) Relation {
	switch {
	case Precedes(x, y):
		return RelPrecedes
	case Precedes(y, x):
		return RelPrecededBy
	case DefinitelyOverlap(x, y):
		return RelDefinitelyOverlap
	default:
		return RelPossiblyOverlap
	}
}

// EndpointBits encodes the causality relations among the four endpoints of
// the interval pair (x, y) as a bitmask. Bit k set means the k-th
// endpoint relation holds:
//
//	bit 0: x.Start → y.Start     bit 4: y.Start → x.Start
//	bit 1: x.Start → y.End       bit 5: y.Start → x.End
//	bit 2: x.End   → y.Start     bit 6: y.End   → x.Start
//	bit 3: x.End   → y.End       bit 7: y.End   → x.End
//
// These eight dependency bits are the information from which the
// fine-grained suite of 40 orthogonal interval relations of [20, 21] is
// derived; the coarse relations above are projections of them. Exposing
// the raw bits lets applications specify any causality-based pairwise
// timing relation of Section 3.1.1.b.i.
//
//lint:allow deadcode(paper model: partial-order interval relations, DESIGN §1.2)
func EndpointBits(x, y POInterval) uint8 {
	var bits uint8
	rel := func(a, b clock.Vector) bool { return a.HappensBefore(b) }
	if rel(x.Start, y.Start) {
		bits |= 1 << 0
	}
	if rel(x.Start, y.End) {
		bits |= 1 << 1
	}
	if rel(x.End, y.Start) {
		bits |= 1 << 2
	}
	if rel(x.End, y.End) {
		bits |= 1 << 3
	}
	if rel(y.Start, x.Start) {
		bits |= 1 << 4
	}
	if rel(y.Start, x.End) {
		bits |= 1 << 5
	}
	if rel(y.End, x.Start) {
		bits |= 1 << 6
	}
	if rel(y.End, x.End) {
		bits |= 1 << 7
	}
	return bits
}

// BitsConsistent reports whether an endpoint bitmask could arise from a
// valid interval pair: causality is acyclic, downward/upward closed over
// interval endpoints (Start ≤ End within each interval), and antisymmetric.
func BitsConsistent(bits uint8) bool {
	get := func(k uint) bool { return bits&(1<<k) != 0 }
	// Antisymmetry between mirrored endpoint pairs:
	// (xS→yS, yS→xS), (xS→yE, yE→xS), (xE→yS, yS→xE), (xE→yE, yE→xE).
	for _, pair := range [][2]uint{{0, 4}, {1, 6}, {2, 5}, {3, 7}} {
		if get(pair[0]) && get(pair[1]) {
			return false
		}
	}
	// Closure under Start ≤ End: xE→yS implies xS→yS, xS→yE and xE→yE;
	// xS→yS implies xS→yE; xE→yE implies xS→yE. Mirrored for y→x with
	// bit 5 (yS→xE) as the weakest y→x relation.
	if get(2) && !(get(0) && get(1) && get(3)) {
		return false
	}
	if get(0) && !get(1) {
		return false
	}
	if get(3) && !get(1) {
		return false
	}
	if get(6) && !(get(4) && get(5) && get(7)) {
		return false
	}
	if get(4) && !get(5) {
		return false
	}
	if get(7) && !get(5) {
		return false
	}
	return true
}
