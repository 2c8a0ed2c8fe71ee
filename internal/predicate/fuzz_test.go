package predicate

import (
	"testing"

	"pervasive/internal/stats"
)

// genCond builds a random predicate AST of bounded depth.
func genCond(r *stats.RNG, depth int) Cond {
	if depth <= 0 {
		return genCmp(r)
	}
	switch r.Intn(4) {
	case 0:
		return And{L: genCond(r, depth-1), R: genCond(r, depth-1)}
	case 1:
		return Or{L: genCond(r, depth-1), R: genCond(r, depth-1)}
	case 2:
		return Not{X: genCond(r, depth-1)}
	default:
		return genCmp(r)
	}
}

func genCmp(r *stats.RNG) Cond {
	return Cmp{
		Op: CmpOp(r.Intn(6)),
		L:  genExpr(r, 2),
		R:  genExpr(r, 2),
	}
}

func genExpr(r *stats.RNG, depth int) Expr {
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return Const(float64(r.Intn(20)) - 10)
		case 1:
			return Var{Proc: r.Intn(3), Name: varNames[r.Intn(len(varNames))]}
		default:
			return Agg{Op: AggOp(r.Intn(4)), Name: varNames[r.Intn(len(varNames))]}
		}
	}
	switch r.Intn(3) {
	case 0:
		return Bin{Op: BinOp(r.Intn(4)), L: genExpr(r, depth-1), R: genExpr(r, depth-1)}
	case 1:
		return Neg{X: genExpr(r, depth-1)}
	default:
		return genExpr(r, 0)
	}
}

var varNames = []string{"x", "y", "temp"}

// TestFuzzRoundTrip renders random ASTs, reparses them, and checks
// semantic equality on random states — the parser and printer are exact
// inverses up to semantics.
func TestFuzzRoundTrip(t *testing.T) {
	r := stats.NewRNG(2024)
	for trial := 0; trial < 300; trial++ {
		orig := genCond(r, 3)
		src := orig.String()
		re, err := Parse(src)
		if err != nil {
			t.Fatalf("trial %d: reparse of %q failed: %v", trial, src, err)
		}
		for k := 0; k < 10; k++ {
			s := MapState{N: 3, Vals: map[Key]float64{}}
			for p := 0; p < 3; p++ {
				for _, name := range varNames {
					s.Vals[Key{p, name}] = float64(r.Intn(9)) - 4
				}
			}
			if orig.Holds(s) != re.Holds(s) {
				t.Fatalf("trial %d: %q differs from reparse on state %v",
					trial, src, s.Vals)
			}
		}
	}
}

// TestFuzzEvalNeverPanics drives random predicates over adversarial
// states (empty, negative process counts won't occur, NaN-free).
func TestFuzzEvalNeverPanics(t *testing.T) {
	r := stats.NewRNG(7)
	states := []State{
		MapState{N: 0, Vals: nil},
		MapState{N: 1, Vals: map[Key]float64{}},
		MapState{N: 5, Vals: map[Key]float64{{0, "x"}: 1e18, {4, "y"}: -1e18}},
	}
	for trial := 0; trial < 200; trial++ {
		c := genCond(r, 4)
		for _, s := range states {
			_ = c.Holds(s) // must not panic
		}
		_, _ = AsConjunctive(c) // must not panic either
	}
}

// FuzzParse feeds arbitrary text to the predicate parser: it must return
// an error or a condition whose rendering parses back to the same
// rendering and evaluates without panicking.
func FuzzParse(f *testing.F) {
	f.Add("sum(x) >= 2")
	f.Add("sum(p) - sum(q) > 3 && !(x@0 < -1.5e3 || max(temp) != min(temp))")
	f.Add("count(x) * (y@2 / 0) <= avg(x)")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse(src)
		if err != nil {
			return
		}
		out := c.String()
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("rendered condition %q does not parse: %v", out, err)
		}
		if again.String() != out {
			t.Fatalf("Parse→String→Parse changed %q to %q", out, again.String())
		}
		_ = c.Holds(MapState{N: 3, Vals: map[Key]float64{{0, "x"}: 1, {2, "y"}: -2}})
	})
}
