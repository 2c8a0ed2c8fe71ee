package sim

import "testing"

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

func TestExecutedCounter(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 5; i++ {
		e.At(Time(i), func(Time) {})
	}
	e.At(10, func(Time) {})
	e.Run(9)
	if e.Executed != 5 || e.Scheduled != 6 {
		t.Fatalf("executed %d scheduled %d, want 5 and 6", e.Executed, e.Scheduled)
	}
}
