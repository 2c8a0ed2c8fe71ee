package intervals

import (
	"testing"
	"testing/quick"

	"pervasive/internal/sim"
)

func TestClassifyAll13(t *testing.T) {
	y := Span{Lo: 10, Hi: 20}
	cases := []struct {
		x    Span
		want Allen
	}{
		{Span{0, 5}, Before},
		{Span{0, 10}, Meets},
		{Span{5, 15}, Overlaps},
		{Span{10, 15}, Starts},
		{Span{12, 18}, During},
		{Span{15, 20}, Finishes},
		{Span{10, 20}, Equals},
		{Span{5, 20}, FinishedBy},
		{Span{5, 25}, Contains},
		{Span{10, 25}, StartedBy},
		{Span{15, 25}, OverlappedBy},
		{Span{20, 30}, MetBy},
		{Span{25, 30}, After},
	}
	seen := make(map[Allen]bool)
	for _, c := range cases {
		got := Classify(c.x, y)
		if got != c.want {
			t.Errorf("Classify(%v, %v) = %v want %v", c.x, y, got, c.want)
		}
		seen[got] = true
	}
	if len(seen) != 13 {
		t.Fatalf("cases cover %d of 13 relations", len(seen))
	}
}

func TestClassifyEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty span")
		}
	}()
	Classify(Span{5, 5}, Span{0, 10})
}

// Property: Classify(y, x) is always the converse relation of
// Classify(x, y), and exactly one relation holds. The relations are
// declared in converse-symmetric order, so the converse of relation k
// is relation 12-k.
func TestAllenInverseProperty(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		x := Span{Lo: sim.Time(a), Hi: sim.Time(a) + sim.Time(b%50) + 1}
		y := Span{Lo: sim.Time(c), Hi: sim.Time(c) + sim.Time(d%50) + 1}
		return Allen(len(allenNames)-1-int(Classify(x, y))) == Classify(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Intersects agrees with the relation classification.
func TestIntersectsMatchesClassification(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		x := Span{Lo: sim.Time(a), Hi: sim.Time(a) + sim.Time(b%50) + 1}
		y := Span{Lo: sim.Time(c), Hi: sim.Time(c) + sim.Time(d%50) + 1}
		rel := Classify(x, y)
		disjoint := rel == Before || rel == After || rel == Meets || rel == MetBy
		return Intersects(x, y) == !disjoint
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpanHelpers(t *testing.T) {
	if !(Span{3, 3}).Empty() || (Span{3, 7}).Empty() {
		t.Fatal("Empty misbehaves")
	}
}

func TestAllenStrings(t *testing.T) {
	if Before.String() != "before" || Equals.String() != "equals" || After.String() != "after" {
		t.Fatal("relation names wrong")
	}
	if Allen(99).String() != "invalid" {
		t.Fatal("out-of-range name")
	}
}
