package clock

import (
	"testing"

	"pervasive/internal/stats"
)

func TestStrobeScalarRules(t *testing.T) {
	var s StrobeScalar
	if s.Read() != 0 {
		t.Fatal("fresh strobe scalar not 0")
	}
	if s.Strobe() != 1 { // SSC1
		t.Fatal("SSC1 tick failed")
	}
	s.OnStrobe(10) // SSC2: max, no tick
	if s.Read() != 10 {
		t.Fatalf("SSC2 got %d want 10", s.Read())
	}
	s.OnStrobe(4) // stale strobe ignored
	if s.Read() != 10 {
		t.Fatal("stale strobe regressed the clock")
	}
}

func TestStrobeReceiverDoesNotTick(t *testing.T) {
	// Difference 2 of §4.2.3: on receiving a strobe the receiver updates
	// but does not tick, unlike Lamport/vector receive.
	var s StrobeScalar
	s.OnStrobe(5)
	s.OnStrobe(5)
	if s.Read() != 5 {
		t.Fatalf("strobe receive ticked: %d", s.Read())
	}
	var l Lamport
	l.Receive(5)
	if l.Read() != 6 {
		t.Fatalf("lamport receive should tick: %d", l.Read())
	}
}

func TestStrobeVectorRules(t *testing.T) {
	s := NewStrobeVector(0, 3)
	v := s.Strobe() // SVC1
	if v.Compare(Vector{1, 0, 0}) != Same {
		t.Fatalf("SVC1 got %v", v)
	}
	s.OnStrobe(Vector{0, 4, 2}) // SVC2
	if s.Snapshot().Compare(Vector{1, 4, 2}) != Same {
		t.Fatalf("SVC2 got %v", s.Snapshot())
	}
	// No tick on receive: local component still 1.
	if s.Snapshot()[0] != 1 {
		t.Fatal("SVC2 ticked local component")
	}
}

func TestStrobeVectorMonotone(t *testing.T) {
	r := stats.NewRNG(5)
	s := NewStrobeVector(1, 4)
	prev := s.Snapshot()
	for i := 0; i < 500; i++ {
		if r.Bool(0.5) {
			s.Strobe()
		} else {
			in := NewVector(4)
			for j := range in {
				in[j] = uint64(r.Intn(50))
			}
			s.OnStrobe(in)
		}
		cur := s.Snapshot()
		if rel := prev.Compare(cur); rel != Before && rel != Same {
			t.Fatalf("strobe clock not monotone: %v then %v", prev, cur)
		}
		prev = cur
	}
}

func TestStrobeVectorLocalComponentDominance(t *testing.T) {
	// Invariant: process i's own component is the max over the system for
	// events it originated — its Strobe() output dominates any strobe it
	// has merged for component i.
	s := NewStrobeVector(2, 3)
	s.OnStrobe(Vector{7, 7, 7})
	v := s.Strobe()
	if v[2] != 8 {
		t.Fatalf("local component after merge+strobe = %d want 8", v[2])
	}
}

func TestStrobeScalarsSimulateTotalOrderAtDeltaZero(t *testing.T) {
	// §4.2.3 item 5: with Δ=0 and a strobe at each relevant event, scalar
	// strobes suffice — every pair of events at different processes is
	// ordered by (value, process) with no two relevant events sharing a
	// scalar value, because each strobe is seen by all before the next
	// event occurs.
	r := stats.NewRNG(9)
	const n = 5
	clocks := make([]*StrobeScalar, n)
	for i := range clocks {
		clocks[i] = &StrobeScalar{}
	}
	var values []uint64
	for step := 0; step < 200; step++ {
		p := r.Intn(n)
		v := clocks[p].Strobe()
		// Δ=0 synchronous broadcast: everyone merges instantly.
		for q := range clocks {
			if q != p {
				clocks[q].OnStrobe(v)
			}
		}
		values = append(values, v)
	}
	for i := 1; i < len(values); i++ {
		if values[i] != values[i-1]+1 {
			t.Fatalf("Δ=0 scalar strobes not a total order: %d then %d",
				values[i-1], values[i])
		}
	}
}

func TestNewStrobeVectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range index did not panic")
		}
	}()
	NewStrobeVector(-1, 3)
}

func BenchmarkLamportTick(b *testing.B) {
	var l Lamport
	for i := 0; i < b.N; i++ {
		l.Tick()
	}
}

func BenchmarkVectorClockReceive(b *testing.B) {
	c := NewVectorClock(0, 32)
	in := NewVector(32)
	for i := range in {
		in[i] = uint64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Receive(in)
	}
}

func BenchmarkStrobeVectorMerge(b *testing.B) {
	s := NewStrobeVector(0, 32)
	in := NewVector(32)
	for i := range in {
		in[i] = uint64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.OnStrobe(in)
	}
}

func BenchmarkVectorCompare(b *testing.B) {
	v := NewVector(32)
	w := NewVector(32)
	for i := range v {
		v[i] = uint64(i)
		w[i] = uint64(32 - i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Compare(w)
	}
}
