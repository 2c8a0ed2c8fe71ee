package sim

import (
	"testing"
	"testing/quick"
)

func TestAfterNegativePanics(t *testing.T) {
	e := NewEngine(1)
	e.At(100, func(Time) {
		defer func() {
			if recover() == nil {
				t.Error("After(-1) did not panic")
			}
		}()
		e.After(-1, func(Time) {})
	})
	e.RunAll()
}

func TestCancelInsideHandler(t *testing.T) {
	e := NewEngine(1)
	fired := false
	var tm Timer
	e.At(1, func(Time) { tm.Stop() })
	tm = e.At(2, func(Time) { fired = true })
	e.RunAll()
	if fired {
		t.Fatal("timer cancelled from a handler still fired")
	}
}

func TestSelfCancelDuringOwnExecutionIsNoop(t *testing.T) {
	e := NewEngine(1)
	var tm Timer
	ran := false
	tm = e.At(1, func(Time) {
		ran = true
		if tm.Stop() {
			t.Error("stopping a firing timer reported success")
		}
	})
	e.RunAll()
	if !ran {
		t.Fatal("handler did not run")
	}
}

func TestRunAfterStopResumes(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.At(1, func(Time) { count++ })
	e.At(2, func(Time) { count++ })
	e.Run(1)
	if count != 1 {
		t.Fatalf("count %d", count)
	}
	e.RunAll() // resumes past the horizon
	if count != 2 {
		t.Fatalf("count after resume %d", count)
	}
}

// Property: cancelling a random subset of scheduled events fires exactly
// the complement, in time order.
func TestCancellationProperty(t *testing.T) {
	f := func(delays []uint8, cancelMask []bool) bool {
		e := NewEngine(3)
		type rec struct {
			at     Time
			cancel bool
		}
		var expected []Time
		timers := make([]Timer, 0, len(delays))
		plans := make([]rec, 0, len(delays))
		for i, d := range delays {
			at := Time(d) + 1
			cancel := i < len(cancelMask) && cancelMask[i]
			plans = append(plans, rec{at: at, cancel: cancel})
			if !cancel {
				expected = append(expected, at)
			}
		}
		var fired []Time
		for _, p := range plans {
			timers = append(timers, e.At(p.at, func(now Time) {
				fired = append(fired, now)
			}))
		}
		for i, p := range plans {
			if p.cancel {
				timers[i].Stop()
			}
		}
		e.RunAll()
		if len(fired) != len(expected) {
			return false
		}
		// fired must be sorted and a permutation-by-multiset of expected
		counts := map[Time]int{}
		for _, at := range expected {
			counts[at]++
		}
		prev := Time(0)
		for _, at := range fired {
			if at < prev {
				return false
			}
			prev = at
			counts[at]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExecutedCounter(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 5; i++ {
		e.At(Time(i), func(Time) {})
	}
	tm := e.At(10, func(Time) {})
	tm.Stop()
	e.RunAll()
	if e.Executed != 5 {
		t.Fatalf("executed %d", e.Executed)
	}
}
