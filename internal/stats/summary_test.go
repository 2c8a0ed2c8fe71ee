package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOnlineAgainstDirect(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	var o Online
	sum := 0.0
	for _, x := range xs {
		o.Add(x)
		sum += x
	}
	mean := sum / float64(len(xs))
	if math.Abs(o.Mean()-mean) > 1e-12 {
		t.Fatalf("online mean %.6f direct %.6f", o.Mean(), mean)
	}
	if o.Max() != 9 {
		t.Fatalf("max = %v", o.Max())
	}
}

func TestOnlineEmptyAndSingle(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Max() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
	o.Add(7)
	if o.Mean() != 7 || o.Max() != 7 {
		t.Fatal("single sample stats wrong")
	}
}

func TestOnlineMeanWithinBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var o Online
		lo, hi := math.Inf(1), math.Inf(-1)
		ok := true
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true // skip degenerate inputs
			}
			// Avoid float overflow in the running mean's deltas.
			if math.Abs(x) > 1e100 {
				return true
			}
			o.Add(x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		if len(xs) == 0 {
			return true
		}
		m := o.Mean()
		ok = ok && m >= lo-1e-9*(1+math.Abs(lo)) && m <= hi+1e-9*(1+math.Abs(hi))
		ok = ok && o.Max() == hi
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
