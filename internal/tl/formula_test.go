package tl

import (
	"strings"
	"testing"

	"pervasive/internal/sim"
)

func demoTrace() *Trace {
	tr := NewTrace(100 * sim.Second)
	// occupied: [10,40) and [60,90); alarm pulses shortly after each rise.
	tr.Set("occupied", []Span{
		{10 * sim.Second, 40 * sim.Second},
		{60 * sim.Second, 90 * sim.Second},
	})
	tr.Set("alarm", []Span{
		{12 * sim.Second, 13 * sim.Second},
		{63 * sim.Second, 64 * sim.Second},
	})
	return tr
}

func TestResponseProperty(t *testing.T) {
	tr := demoTrace()
	// Every occupied instant sees an alarm within 5s — false (occupied
	// lasts 30s, alarms are brief).
	if Monitor(MustParse("G(occupied -> F[0,5s] alarm)"), tr) {
		t.Fatal("long occupancy cannot be fully covered by brief alarms")
	}
	// But every *rise* of occupancy (instant not preceded by occupancy)
	// sees an alarm within 5s.
	rise := And{L: Atom("occupied"), R: Not{F: Once{W: Window{Lo: sim.Millisecond, Hi: sim.Second}, F: Atom("occupied")}}}
	resp := Always{W: Window{Lo: 0, Hi: Unbounded},
		F: Implies{L: rise, R: Eventually{W: Window{Lo: 0, Hi: 5 * sim.Second}, F: Atom("alarm")}}}
	if !Monitor(resp, tr) {
		t.Fatalf("rise-response property should hold; violations: %v",
			Violations(resp, tr))
	}
}

func TestMonitorAndViolations(t *testing.T) {
	tr := demoTrace()
	f := MustParse("G(!occupied || O[0,inf] occupied)")
	if !Monitor(f, tr) {
		t.Fatal("tautology-ish property failed")
	}
	g := MustParse("G occupied")
	if Monitor(g, tr) {
		t.Fatal("G occupied should fail")
	}
	v := Violations(g, tr)
	if len(v) == 0 || v[0].Lo != 0 {
		t.Fatalf("violations %v", v)
	}
}

func TestUntilFormula(t *testing.T) {
	tr := NewTrace(100)
	tr.Set("hot", []Span{{0, 50}})
	tr.Set("cooled", []Span{{45, 55}})
	if !Monitor(MustParse("hot U cooled"), tr) {
		t.Fatal("hot U cooled should hold at 0")
	}
	tr2 := NewTrace(100)
	tr2.Set("hot", []Span{{0, 30}})
	tr2.Set("cooled", []Span{{60, 70}})
	if Monitor(MustParse("hot U cooled"), tr2) {
		t.Fatal("gap between hot and cooled must break until")
	}
}

func TestConstFormulas(t *testing.T) {
	tr := NewTrace(100)
	if !Monitor(MustParse("true"), tr) || Monitor(MustParse("false"), tr) {
		t.Fatal("boolean literals broken")
	}
	if !Monitor(MustParse("G true"), tr) {
		t.Fatal("G true should hold")
	}
}

func TestUnknownAtomIsFalse(t *testing.T) {
	tr := NewTrace(100)
	if Monitor(MustParse("ghost"), tr) {
		t.Fatal("unknown atom should be false")
	}
	if !Monitor(MustParse("!ghost"), tr) {
		t.Fatal("negated unknown atom should be true")
	}
}

func TestImplicationRightAssociative(t *testing.T) {
	tr := NewTrace(100)
	tr.Set("a", []Span{{0, 100}})
	// a -> a -> a parses as a -> (a -> a) = true.
	if !Monitor(MustParse("a -> a -> a"), tr) {
		t.Fatal("right associativity broken")
	}
}

func TestParseWindows(t *testing.T) {
	cases := []string{
		"F[0,5s] x",
		"G[100ms,2s] x",
		"O[0,inf] x",
		"H[1m,1h] x",
		"F[0.5s,1.5s] x",
		"F[3,4] x", // default unit: seconds
	}
	for _, src := range cases {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"":                             "unexpected end",
		"x &&":                         "unexpected end",
		"(x":                           "missing )",
		"F[5s] x":                      "expected ,",
		"F[5s,1s] x":                   "upper bound below lower",
		"F[,5s] x":                     "bad duration",
		"x y":                          "unexpected",
		"G[0,5s]":                      "unexpected end",
		"@":                            "unexpected",
		"F[abc,5s] x":                  "bad duration",
		"F[0,5s x":                     "expected ]",
		"F[inf,5s] x":                  "bad duration",
		"F[NaN,5s] x":                  "bad duration",
		"F[0,99999999999999999999h] x": "out of range",
	}
	for src, frag := range bad {
		_, err := Parse(src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded", src)
			continue
		}
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("Parse(%q) error %q missing %q", src, err, frag)
		}
	}
}

// TestRenderReparses: String renders a formula that parses back to the
// same rendering, even where operators abut names or the source holds a
// non-UTF-8 byte.
func TestRenderReparses(t *testing.T) {
	for src, want := range map[string]string{
		"G x":                          "G x",
		"G H[0,0]A":                    "G H[0µs,0µs]A",
		"F(a && G b)":                  "F(a && (G b))",
		"G(occupied -> F[0,5s] alarm)": "G(occupied -> F[0µs,5.000s]alarm)",
	} {
		f, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if got := f.String(); got != want {
			t.Errorf("Parse(%q).String() = %q, want %q", src, got, want)
		}
		again, err := Parse(f.String())
		if err != nil || again.String() != want {
			t.Errorf("reparse of %q = %v, %v", want, again, err)
		}
	}
	if _, err := Parse("\x80"); err == nil {
		t.Error("a non-UTF-8 byte parsed as an atom")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustParse("((")
}

func TestFormulaStringsReparse(t *testing.T) {
	srcs := []string{
		"G(occupied -> F[0,5s] alarm)",
		"hot U cooled",
		"!a && (b || c)",
		"H[0,10s] closed",
		"O[1s,inf] seen",
	}
	tr := demoTrace()
	tr.Set("hot", []Span{{0, 50 * sim.Second}})
	tr.Set("cooled", []Span{{45 * sim.Second, 55 * sim.Second}})
	tr.Set("a", []Span{{0, 10 * sim.Second}})
	tr.Set("b", []Span{{5 * sim.Second, 15 * sim.Second}})
	tr.Set("closed", []Span{{0, 100 * sim.Second}})
	tr.Set("seen", []Span{{1 * sim.Second, 2 * sim.Second}})
	for _, src := range srcs {
		f := MustParse(src)
		re, err := Parse(f.String())
		if err != nil {
			t.Fatalf("reparse of %q → %q: %v", src, f.String(), err)
		}
		a := f.Sat(tr)
		b := re.Sat(tr)
		if len(a.Spans) != len(b.Spans) {
			t.Fatalf("round-trip of %q changed semantics", src)
		}
		for i := range a.Spans {
			if a.Spans[i] != b.Spans[i] {
				t.Fatalf("round-trip of %q changed semantics at span %d", src, i)
			}
		}
	}
}

func TestHistoricallyPastBoundaryConvention(t *testing.T) {
	// H[0,10]: before 10 time units have elapsed, the missing past counts
	// as satisfying (dual of the horizon convention for G).
	tr := NewTrace(100)
	tr.Set("p", []Span{{0, 50}})
	h := MustParse("H[0,10s] p")
	// At t=5s the window [t-10s, t] reaches before 0; p held on all the
	// *observed* past, so H holds.
	sat := h.Sat(&Trace{Atoms: map[string]Signal{
		"p": NewSignal([]Span{{0, 50 * sim.Second}}, 100*sim.Second),
	}, Horizon: 100 * sim.Second})
	if !sat.At(5 * sim.Second) {
		t.Fatal("H with partially-missing past should hold when observed past satisfies")
	}
	if sat.At(55 * sim.Second) {
		t.Fatal("H should fail once a violation is inside the window")
	}
	_ = tr
}

// FuzzParse feeds arbitrary text to the formula parser: it must return an
// error or a formula whose rendering parses back to the same rendering.
func FuzzParse(f *testing.F) {
	f.Add("G(occupied -> F[0,5s] alarm)")
	f.Add("G[0,1m] !overcap && H[0,10s] door_closed")
	f.Add("(hot U cooled) || O[250ms,inf] true -> false")
	f.Fuzz(func(t *testing.T, src string) {
		fm, err := Parse(src)
		if err != nil {
			return
		}
		out := fm.String()
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("rendered formula %q does not parse: %v", out, err)
		}
		if again.String() != out {
			t.Fatalf("Parse→String→Parse changed %q to %q", out, again.String())
		}
	})
}
