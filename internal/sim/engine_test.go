package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		e.At(at, func(now Time) { got = append(got, now) })
	}
	e.RunAll()
	want := []Time{10, 20, 30, 40, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func(Time) { got = append(got, i) })
	}
	e.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events ran out of order: %v", got)
		}
	}
}

func TestEngineAfterAndNow(t *testing.T) {
	e := NewEngine(1)
	var at1, at2 Time
	e.After(100, func(now Time) {
		at1 = now
		e.After(50, func(now Time) { at2 = now })
	})
	e.RunAll()
	if at1 != 100 || at2 != 150 {
		t.Fatalf("at1=%v at2=%v", at1, at2)
	}
	if e.Now() != 150 {
		t.Fatalf("final now %v", e.Now())
	}
}

func TestEngineRunHorizon(t *testing.T) {
	e := NewEngine(1)
	ran := make(map[Time]bool)
	for _, at := range []Time{10, 20, 30} {
		at := at
		e.At(at, func(Time) { ran[at] = true })
	}
	end := e.Run(20)
	if end != 20 {
		t.Fatalf("end %v", end)
	}
	if !ran[10] || !ran[20] || ran[30] {
		t.Fatalf("ran=%v; events at the horizon must run, later ones must not", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending %d", e.Pending())
	}
	e.RunAll()
	if !ran[30] {
		t.Fatal("resumed run skipped remaining event")
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.At(10, func(Time) { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer should return true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should return false")
	}
	e.RunAll()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := NewEngine(1)
	tm := e.At(10, func(Time) {})
	e.RunAll()
	if tm.Stop() {
		t.Fatal("Stop after firing should return false")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(100, func(Time) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		e.At(50, func(Time) {})
	})
	e.RunAll()
}

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	NewEngine(1).At(5, nil)
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []int64 {
		e := NewEngine(99)
		var trace []int64
		var tick func(Time)
		n := 0
		tick = func(now Time) {
			trace = append(trace, int64(now))
			n++
			if n < 200 {
				e.After(Duration(e.RNG().Intn(1000)+1), tick)
			}
		}
		e.At(0, tick)
		e.RunAll()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("trace lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: executing any batch of scheduled delays yields a non-decreasing
// sequence of handler times.
func TestEngineMonotoneProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(5)
		var times []Time
		for _, d := range delays {
			e.At(Time(d), func(now Time) { times = append(times, now) })
		}
		e.RunAll()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStepReturnsFalseWhenDrained(t *testing.T) {
	e := NewEngine(1)
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
	e.At(3, func(Time) {})
	if !e.Step() {
		t.Fatal("Step with pending event returned false")
	}
	if e.Step() {
		t.Fatal("Step after drain returned true")
	}
}

func TestZeroTimerStopIsInert(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Fatal("zero Timer Stop returned true")
	}
}

func TestStaleTimerAfterSlotReuse(t *testing.T) {
	e := NewEngine(1)
	tm := e.At(1, func(Time) {})
	e.RunAll() // fires; the slot returns to the free list
	fired := false
	tm2 := e.At(2, func(Time) { fired = true }) // recycles the slot
	if tm.Stop() {
		t.Fatal("stale timer cancelled a recycled slot")
	}
	e.RunAll()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
	if tm2.Stop() {
		t.Fatal("Stop after firing returned true")
	}
}

func TestCancellationSweepCompactsHeap(t *testing.T) {
	e := NewEngine(1)
	nop := func(Time) {}
	timers := make([]Timer, 0, 1024)
	for i := 0; i < 1024; i++ {
		timers = append(timers, e.At(Time(i+1), nop))
	}
	for i, tm := range timers {
		if i%8 != 0 { // cancel 7 of every 8
			tm.Stop()
		}
	}
	if got := e.Pending(); got != 128 {
		t.Fatalf("pending %d after mass cancellation, want 128", got)
	}
	// The amortized sweep must have compacted the tombstones away.
	if len(e.heap) >= 1024/2 {
		t.Fatalf("heap still holds %d entries for 128 live events", len(e.heap))
	}
	var fired []Time
	e.At(5000, func(now Time) { fired = append(fired, now) })
	for e.Step() {
	}
	if e.Executed != 129 {
		t.Fatalf("executed %d events, want 129", e.Executed)
	}
	if len(fired) != 1 || fired[0] != 5000 {
		t.Fatalf("canary fired %v, want once at 5000", fired)
	}
	if e.Cancelled != 896 {
		t.Fatalf("Cancelled = %d, want 896", e.Cancelled)
	}
}

func TestHeapDepthWatermarkCountsLiveEvents(t *testing.T) {
	e := NewEngine(1)
	nop := func(Time) {}
	for i := 0; i < 100; i++ {
		e.At(Time(i+1), nop)
	}
	if e.MaxHeapDepth != 100 {
		t.Fatalf("watermark %d, want 100", e.MaxHeapDepth)
	}
	e.RunAll()
	if e.Executed != 100 {
		t.Fatalf("executed %d", e.Executed)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine(uint64(i))
		var tick func(Time)
		n := 0
		tick = func(Time) {
			n++
			if n < 1000 {
				e.After(Duration(e.RNG().Intn(100)+1), tick)
			}
		}
		e.At(0, tick)
		e.RunAll()
	}
}
