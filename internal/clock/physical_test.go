package clock

import (
	"testing"

	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

func TestDriftingClockOffsetAndDrift(t *testing.T) {
	d := Drifting{Offset: 100, DriftPPM: 40}
	if got := d.Read(0); got != 100 {
		t.Fatalf("read at 0 = %v", got)
	}
	// After one true second a +40ppm clock gains 40 µs.
	if got := d.Read(sim.Second); got != 100+sim.Second+40 {
		t.Fatalf("read at 1s = %v", got)
	}
	if sk := d.Read(sim.Second) - sim.Second; sk != 140 {
		t.Fatalf("skew = %v", sk)
	}
}

func TestDriftingClockGranularity(t *testing.T) {
	d := Drifting{Granularity: 10}
	if got := d.Read(17); got != 10 {
		t.Fatalf("granular read = %v want 10", got)
	}
	if got := d.Read(20); got != 20 {
		t.Fatalf("granular read = %v want 20", got)
	}
}

func TestDriftingClockMonotone(t *testing.T) {
	fleet := NewDriftingFleet(stats.NewRNG(1), 8, sim.Second, 100)
	for _, d := range fleet {
		prev := d.Read(0)
		for now := sim.Time(1); now < 10*sim.Second; now += 777 {
			cur := d.Read(now)
			if cur < prev {
				t.Fatalf("clock %+v went backwards: %v then %v", d, prev, cur)
			}
			prev = cur
		}
	}
}

func TestEpsilonFleetBound(t *testing.T) {
	const eps = 10 * sim.Millisecond
	fleet := NewEpsilonFleet(stats.NewRNG(2), 100, eps)
	for i, c := range fleet {
		if c.Off < -eps/2 || c.Off > eps/2 {
			t.Fatalf("clock %d offset %v outside ±ε/2", i, c.Off)
		}
	}
	// Pairwise skew at any instant is ≤ ε.
	for _, a := range fleet {
		for _, b := range fleet {
			skew := a.Read(12345) - b.Read(12345)
			if skew < -eps || skew > eps {
				t.Fatalf("pairwise skew %v exceeds ε", skew)
			}
		}
	}
}

func TestEpsilonFleetZero(t *testing.T) {
	fleet := NewEpsilonFleet(stats.NewRNG(3), 5, 0)
	for _, c := range fleet {
		if c.Off != 0 {
			t.Fatal("ε=0 fleet should be perfectly synchronized")
		}
	}
}

func TestPhysicalVector(t *testing.T) {
	hwA := Drifting{Offset: 0}
	hwB := Drifting{Offset: 500}
	a := NewPhysicalVector(0, 2, hwA)
	b := NewPhysicalVector(1, 2, hwB)

	va := a.Tick(1000)
	if va[0] != 1000 || va[1] != 0 {
		t.Fatalf("a tick = %v", va)
	}
	vb := b.Receive(2000, va)
	// b's local reading at 2000 is 2500; merged a-component is 1000.
	if vb[0] != 1000 || vb[1] != 2500 {
		t.Fatalf("b receive = %v", vb)
	}
}

func TestPhysicalVectorMonotoneOnPlateau(t *testing.T) {
	// A coarse-granularity clock can return the same reading twice; the
	// vector must still advance.
	hw := Drifting{Granularity: 1000}
	p := NewPhysicalVector(0, 1, hw)
	v1 := p.Tick(100)
	v2 := p.Tick(150) // same granule
	if v2[0] <= v1[0] {
		t.Fatalf("vector not monotone on plateau: %v then %v", v1, v2)
	}
}

func TestPhysicalVectorSnapshotIsCopy(t *testing.T) {
	p := NewPhysicalVector(0, 2, Drifting{})
	s := p.Snapshot()
	s[1] = 42
	if p.Snapshot()[1] != 0 {
		t.Fatal("snapshot aliases internal state")
	}
}

func TestPhysicalVectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range index did not panic")
		}
	}()
	NewPhysicalVector(2, 2, Drifting{})
}

func TestDriftingNegativeGranularityPath(t *testing.T) {
	// Negative local times (large negative offset) still floor correctly.
	d := Drifting{Offset: -100, Granularity: 30}
	got := d.Read(0) // true -100 floors to -120
	if got != -120 {
		t.Fatalf("negative granular read = %v want -120", got)
	}
}
