package workload

import (
	"slices"
	"sort"
	"testing"

	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// TestSortMatchesSliceStable checks Sort against the reflection-based
// stable sort it replaced, on a stream dense in equal (At, Obj, Attr)
// keys: Val carries the emission index, so any reordering of ties shows.
func TestSortMatchesSliceStable(t *testing.T) {
	rng := stats.NewRNG(3)
	attrs := []string{"p", "q", "x"}
	evs := make([]Event, 5000)
	for i := range evs {
		evs[i] = Event{
			At:   sim.Time(rng.Intn(40)),
			Obj:  rng.Intn(6),
			Attr: attrs[rng.Intn(len(attrs))],
			Val:  float64(i),
		}
	}
	want := slices.Clone(evs)
	sort.SliceStable(want, func(i, j int) bool {
		a, b := want[i], want[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Obj != b.Obj {
			return a.Obj < b.Obj
		}
		return a.Attr < b.Attr
	})
	Sort(evs)
	if !slices.Equal(evs, want) {
		t.Fatal("Sort differs from sort.SliceStable under the canonical order")
	}
	ties := 0
	for i := 1; i < len(evs); i++ {
		if compare(evs[i-1], evs[i]) == 0 {
			ties++
		}
	}
	if ties < len(evs)/2 {
		t.Fatalf("only %d equal-key neighbours: the stream does not exercise stability", ties)
	}
}
