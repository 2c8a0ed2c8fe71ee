package world

import (
	"math"
	"testing"

	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

func TestRepeatRespectsHorizon(t *testing.T) {
	eng := sim.NewEngine(1)
	r := stats.NewRNG(1)
	var times []sim.Time
	Repeat(eng, r, stats.Constant{V: 10}, 0, 35, func(now sim.Time) {
		times = append(times, now)
	})
	eng.RunAll()
	if len(times) != 3 {
		t.Fatalf("times %v", times)
	}
	for i, want := range []sim.Time{10, 20, 30} {
		if times[i] != want {
			t.Fatalf("times %v", times)
		}
	}
}

func TestRepeatClampsTinyGaps(t *testing.T) {
	eng := sim.NewEngine(1)
	r := stats.NewRNG(1)
	n := 0
	Repeat(eng, r, stats.Constant{V: 0}, 0, 5, func(sim.Time) { n++ })
	eng.RunAll()
	if n != 5 {
		t.Fatalf("zero gaps clamped to 1µs should fire 5 times, got %d", n)
	}
}

func TestTogglerAlternates(t *testing.T) {
	eng := sim.NewEngine(7)
	w := New(eng)
	o := w.AddObject("motion", nil)
	Toggler{Obj: o, Attr: "on", MeanHigh: 100, MeanLow: 100}.Install(w, 100000)
	eng.RunAll()
	log := w.Log()
	if len(log) < 10 {
		t.Fatalf("toggler produced only %d events", len(log))
	}
	want := 1.0
	for _, ev := range log {
		if ev.New != want {
			t.Fatalf("toggler out of phase at seq %d: %v", ev.Seq, ev.New)
		}
		want = 1 - want
	}
}

func TestTogglerMeanDwell(t *testing.T) {
	eng := sim.NewEngine(11)
	w := New(eng)
	o := w.AddObject("motion", nil)
	high := 50 * sim.Millisecond
	low := 200 * sim.Millisecond
	Toggler{Obj: o, Attr: "on", MeanHigh: high, MeanLow: low}.Install(w, 20*sim.Minute)
	eng.RunAll()
	pred := func(get func(int, string) float64) bool { return get(o, "on") == 1 }
	ivs := TrueIntervals(w.Log(), pred, 20*sim.Minute)
	if len(ivs) < 100 {
		t.Fatalf("too few pulses: %d", len(ivs))
	}
	var tot float64
	for _, iv := range ivs {
		tot += float64(iv.End - iv.Start)
	}
	mean := tot / float64(len(ivs))
	if math.Abs(mean-float64(high))/float64(high) > 0.15 {
		t.Fatalf("mean high dwell %.0fµs want ~%dµs", mean, high)
	}
}

func TestRandomWalkClamps(t *testing.T) {
	eng := sim.NewEngine(3)
	w := New(eng)
	o := w.AddObject("temp", map[string]float64{"v": 5})
	RandomWalk{Obj: o, Attr: "v", Step: 1, Min: 0, Max: 10, MeanGap: 10}.
		Install(w, 100000)
	eng.RunAll()
	if len(w.Log()) == 0 {
		t.Fatal("walk produced no events")
	}
	for _, ev := range w.Log() {
		if ev.New < 0 || ev.New > 10 {
			t.Fatalf("walk escaped clamp: %v", ev.New)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	run := func() int {
		eng := sim.NewEngine(42)
		w := New(eng)
		o := w.AddObject("x", nil)
		Toggler{Obj: o, Attr: "a", MeanHigh: 100, MeanLow: 300}.Install(w, 1000000)
		RandomWalk{Obj: o, Attr: "b", Step: 1, MeanGap: 70}.Install(w, 1000000)
		eng.RunAll()
		return len(w.Log())
	}
	if run() != run() {
		t.Fatal("generators are not deterministic under a fixed seed")
	}
}
