package intervals

import (
	"fmt"
	"sort"
)

// This file implements the fine-grained classification of pairwise
// interval relations in a partial order that Section 3.1.1.b.i builds on
// (Kshemkalyani [20, 21]): the complete set of *orthogonal* relations an
// interval pair (X, Y) can stand in, derived from the causality relations
// among the four endpoints. Every feasible endpoint-bit pattern (see
// EndpointBits) is one orthogonal relation; the suite below enumerates
// them, names them, and provides the dependent/independent-axis structure
// used to build specification spaces like the paper's (2⁴⁰−1)·C(n,2).
//
// The granularity here is the endpoint-causality granularity: relations
// distinguishable only through interior events of the intervals (which
// [20]'s densest suite also splits) collapse onto the same pattern, so the
// suite is the faithful projection of [20] onto interval-endpoint
// information — exactly what vector timestamps of interval boundaries can
// decide.

// FineRelation is one orthogonal pairwise relation, identified by its
// endpoint bit pattern.
type FineRelation struct {
	Bits uint8
	// Index is the relation's position in the canonical enumeration
	// (sorted by Bits).
	Index int
}

// String renders R<i>(bits).
func (r FineRelation) String() string {
	return fmt.Sprintf("R%d(%08b)", r.Index, r.Bits)
}

// Coarse projects the fine relation onto the four coarse relations.
//
//lint:allow deadcode(paper model: the fine-grained interval relation suite, DESIGN §1.2)
func (r FineRelation) Coarse() Relation {
	get := func(k uint) bool { return r.Bits&(1<<k) != 0 }
	switch {
	case get(2): // x.End → y.Start
		return RelPrecedes
	case get(6): // y.End → x.Start
		return RelPrecededBy
	case get(1) && get(5): // x.Start → y.End ∧ y.Start → x.End
		return RelDefinitelyOverlap
	default:
		return RelPossiblyOverlap
	}
}

// enumerateFeasible lists every bit pattern consistent with interval
// semantics (BitsConsistent), sorted ascending.
func enumerateFeasible() []uint8 {
	var out []uint8
	for b := 0; b < 256; b++ {
		if BitsConsistent(uint8(b)) {
			out = append(out, uint8(b))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// feasible is the canonical enumeration, computed once.
var feasible = enumerateFeasible()

// feasibleIndex maps bits to canonical index.
var feasibleIndex = func() map[uint8]int {
	m := make(map[uint8]int, len(feasible))
	for i, b := range feasible {
		m[b] = i
	}
	return m
}()

// FineRelations returns the canonical suite of orthogonal relations.
//
//lint:allow deadcode(paper model: the fine-grained interval relation suite, DESIGN §1.2)
func FineRelations() []FineRelation {
	out := make([]FineRelation, len(feasible))
	for i, b := range feasible {
		out[i] = FineRelation{Bits: b, Index: i}
	}
	return out
}

// NumFineRelations is the size of the suite.
//
//lint:allow deadcode(paper model: the fine-grained interval relation suite, DESIGN §1.2)
func NumFineRelations() int { return len(feasible) }

// ClassifyFine returns the orthogonal relation of the pair (x, y).
//
//lint:allow deadcode(paper model: the fine-grained interval relation suite, DESIGN §1.2)
func ClassifyFine(x, y POInterval) FineRelation {
	bits := EndpointBits(x, y)
	idx, ok := feasibleIndex[bits]
	if !ok {
		// Only reachable with corrupted stamps; classify into the
		// all-concurrent relation rather than panicking in detectors.
		idx = feasibleIndex[0]
		bits = 0
	}
	return FineRelation{Bits: bits, Index: idx}
}

// InverseFine returns the relation of (y, x) given that of (x, y): the
// bit pattern with the two directional nibbles swapped.
//
//lint:allow deadcode(paper model: the fine-grained interval relation suite, DESIGN §1.2)
func InverseFine(r FineRelation) FineRelation {
	inv := (r.Bits >> 4) | (r.Bits << 4)
	return FineRelation{Bits: inv, Index: feasibleIndex[inv]}
}

// SpecSpaceSize returns the size of the specification space over pairs of
// processes the paper quotes as (2^R − 1)·C(n,2): the number of nonempty
// disjunctions of orthogonal relations times the number of process pairs.
// It saturates at 1<<62 to avoid overflow.
//
//lint:allow deadcode(paper model: the fine-grained interval relation suite, DESIGN §1.2)
func SpecSpaceSize(n int) uint64 {
	if n < 2 {
		return 0
	}
	pairs := uint64(n) * uint64(n-1) / 2
	r := NumFineRelations()
	if r >= 62 {
		return 1 << 62
	}
	disjunctions := (uint64(1) << uint(r)) - 1
	// Saturating multiply.
	if disjunctions > (1<<62)/pairs {
		return 1 << 62
	}
	return disjunctions * pairs
}
