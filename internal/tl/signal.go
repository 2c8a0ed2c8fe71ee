// Package tl implements the temporal-logic corner of the paper's
// specification design space (Section 3.1.1.a.iv): a metric temporal logic
// (MTL) over finite, piecewise-constant boolean signals — the natural form
// of "the predicate held during these intervals" produced by both the
// ground-truth oracle and the detectors.
//
// Evaluation is exact interval arithmetic, not sampling: each operator
// maps true-interval sets to true-interval sets. Supported operators:
// boolean connectives; timed Eventually F[a,b], Always G[a,b]; their past
// duals Once O[a,b] and Historically H[a,b]; and untimed Until. (Timed
// Until is intentionally out of scope; the standard monitoring patterns —
// response G(p -> F[0,d] q), invariants, recurrence — need only the
// above.)
package tl

import (
	"sort"

	"pervasive/internal/sim"
)

// Span is a half-open true-interval [Lo, Hi).
type Span struct {
	Lo, Hi sim.Time
}

// Signal is a piecewise-constant boolean signal over [0, horizon),
// represented by its sorted, disjoint, non-empty true-intervals.
type Signal struct {
	Spans   []Span
	Horizon sim.Time
}

// NewSignal builds a normalized signal from arbitrary spans, clipping to
// [0, horizon) and merging overlaps/adjacencies.
func NewSignal(spans []Span, horizon sim.Time) Signal {
	s := Signal{Horizon: horizon}
	clipped := make([]Span, 0, len(spans))
	for _, sp := range spans {
		if sp.Lo < 0 {
			sp.Lo = 0
		}
		if sp.Hi > horizon {
			sp.Hi = horizon
		}
		if sp.Hi > sp.Lo {
			clipped = append(clipped, sp)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Lo < clipped[j].Lo })
	for _, sp := range clipped {
		n := len(s.Spans)
		if n > 0 && sp.Lo <= s.Spans[n-1].Hi {
			if sp.Hi > s.Spans[n-1].Hi {
				s.Spans[n-1].Hi = sp.Hi
			}
			continue
		}
		s.Spans = append(s.Spans, sp)
	}
	return s
}

// At reports the signal value at instant t.
func (s Signal) At(t sim.Time) bool {
	i := sort.Search(len(s.Spans), func(i int) bool { return s.Spans[i].Hi > t })
	return i < len(s.Spans) && s.Spans[i].Lo <= t && t < s.Spans[i].Hi
}

// TrueTime returns the total duration the signal is true.
func (s Signal) TrueTime() sim.Duration {
	var d sim.Duration
	for _, sp := range s.Spans {
		d += sp.Hi - sp.Lo
	}
	return d
}

// Not returns the complement within [0, horizon).
func (s Signal) Not() Signal {
	out := Signal{Horizon: s.Horizon}
	cursor := sim.Time(0)
	for _, sp := range s.Spans {
		if sp.Lo > cursor {
			out.Spans = append(out.Spans, Span{cursor, sp.Lo})
		}
		cursor = sp.Hi
	}
	if cursor < s.Horizon {
		out.Spans = append(out.Spans, Span{cursor, s.Horizon})
	}
	return out
}

// And returns the pointwise conjunction.
func (s Signal) And(o Signal) Signal {
	out := Signal{Horizon: minT(s.Horizon, o.Horizon)}
	i, j := 0, 0
	for i < len(s.Spans) && j < len(o.Spans) {
		a, b := s.Spans[i], o.Spans[j]
		lo := maxT(a.Lo, b.Lo)
		hi := minT(a.Hi, b.Hi)
		if hi > lo {
			out.Spans = append(out.Spans, Span{lo, hi})
		}
		if a.Hi < b.Hi {
			i++
		} else {
			j++
		}
	}
	return NewSignal(out.Spans, out.Horizon)
}

// Or returns the pointwise disjunction.
func (s Signal) Or(o Signal) Signal {
	spans := append(append([]Span(nil), s.Spans...), o.Spans...)
	return NewSignal(spans, maxT(s.Horizon, o.Horizon))
}

// Unbounded marks an infinite upper window bound.
const Unbounded = sim.Time(-1)

// Eventually returns F[a,b]s: true at t iff s is true at some t' in
// [t+a, t+b] (b == Unbounded means no upper bound). With half-open span
// semantics, the witness range is [t+a, t+b] ∩ [0, horizon).
func (s Signal) Eventually(a, b sim.Duration) Signal {
	out := Signal{Horizon: s.Horizon}
	for _, sp := range s.Spans {
		var lo, hi sim.Time
		if b == Unbounded {
			lo = 0
		} else {
			lo = sp.Lo - b
		}
		hi = sp.Hi - a
		out.Spans = append(out.Spans, Span{lo, hi})
	}
	return NewSignal(out.Spans, s.Horizon)
}

// Always returns G[a,b]s = ¬F[a,b]¬s. Note that near the horizon, G over
// a window reaching past the horizon evaluates over the truncated trace
// (finite-trace semantics: missing future counts as satisfying), matching
// the usual monitoring convention: G[a,b]φ fails only on an observed
// violation.
func (s Signal) Always(a, b sim.Duration) Signal {
	return s.Not().Eventually(a, b).Not()
}

// Once returns O[a,b]s (past eventually): true at t iff s was true at
// some t' in [t-b, t-a].
func (s Signal) Once(a, b sim.Duration) Signal {
	out := Signal{Horizon: s.Horizon}
	for _, sp := range s.Spans {
		lo := sp.Lo + a
		var hi sim.Time
		if b == Unbounded {
			hi = s.Horizon
		} else {
			hi = sp.Hi + b
		}
		out.Spans = append(out.Spans, Span{lo, hi})
	}
	return NewSignal(out.Spans, s.Horizon)
}

// Historically returns H[a,b]s = ¬O[a,b]¬s.
func (s Signal) Historically(a, b sim.Duration) Signal {
	return s.Not().Once(a, b).Not()
}

// Until returns the untimed s U o: true at t iff ∃u ≥ t with o true on
// [u, u+ε) and s true throughout [t, u). Points where o itself is true
// satisfy the formula immediately.
func (s Signal) Until(o Signal) Signal {
	out := append([]Span(nil), o.Spans...)
	for _, phi := range s.Spans {
		// Witnesses must begin within [phi.Lo, phi.Hi]: o-spans starting
		// at or before phi.Hi whose extent intersects [phi.Lo, phi.Hi].
		for _, psi := range o.Spans {
			if psi.Lo > phi.Hi {
				break
			}
			if psi.Hi <= phi.Lo {
				continue
			}
			// t may range from phi.Lo up to the last witness point
			// (exclusive), witnesses living in [phi.Lo, min(psi.Hi, phi.Hi)].
			hi := minT(psi.Hi, phi.Hi)
			out = append(out, Span{phi.Lo, hi})
		}
	}
	return NewSignal(out, minT(s.Horizon, o.Horizon))
}

func minT(a, b sim.Time) sim.Time {
	if a < b {
		return a
	}
	return b
}

func maxT(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
