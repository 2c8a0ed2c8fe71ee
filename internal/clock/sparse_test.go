package clock

import (
	"reflect"
	"testing"

	"pervasive/internal/stats"
)

// TestSparseEquivalentToDense drives the dense and sparse representations
// through an identical random rule sequence and requires byte-identical
// stamps and snapshots at every step: representation must be invisible.
func TestSparseEquivalentToDense(t *testing.T) {
	const n = 40
	r := stats.NewRNG(7)
	dense := make([]*DiffStrobeVector, n)
	sparse := make([]*SparseStrobeVector, n)
	for i := 0; i < n; i++ {
		dense[i] = NewDiffStrobeVector(i, n)
		sparse[i] = NewSparseStrobeVector(i, n)
	}
	for step := 0; step < 2000; step++ {
		p := int(r.Int63n(n))
		ds, ss := dense[p].Strobe(), sparse[p].Strobe()
		if !reflect.DeepEqual(ds, ss) {
			t.Fatalf("step %d: stamp diverged\ndense:  %v\nsparse: %v", step, ds, ss)
		}
		// Deliver to a random subset, same for both representations.
		for q := 0; q < n; q++ {
			if q != p && r.Bool(0.2) {
				dense[q].OnStrobe(ds)
				sparse[q].OnStrobe(ss)
			}
		}
		if step%200 == 0 {
			q := int(r.Int63n(n))
			if dv, sv := dense[q].Snapshot(), sparse[q].Snapshot(); !reflect.DeepEqual(dv, sv) {
				t.Fatalf("step %d: snapshot diverged for %d\ndense:  %v\nsparse: %v", step, q, dv, sv)
			}
			if dense[q].OwnClock() != sparse[q].OwnClock() {
				t.Fatalf("step %d: own clock diverged for %d", step, q)
			}
		}
	}
	for q := 0; q < n; q++ {
		if dv, sv := dense[q].Snapshot(), sparse[q].Snapshot(); !reflect.DeepEqual(dv, sv) {
			t.Fatalf("final snapshot diverged for %d", q)
		}
	}
}

// TestSparseStateSublinear: with k active peers the sparse footprint must
// track k, not the system size n.
func TestSparseStateSublinear(t *testing.T) {
	const n, k = 1 << 16, 12
	s := NewSparseStrobeVector(0, n)
	var st SparseStamp
	for p := 1; p <= k; p++ {
		st = append(st, SparseEntry{Proc: p * 31, Val: uint64(p)})
	}
	s.OnStrobe(st)
	if got := s.ActivePeers(); got != k {
		t.Fatalf("ActivePeers = %d, want %d", got, k)
	}
	dense := NewDiffStrobeVector(0, n).StateBytes()
	if sb := s.StateBytes(); sb*100 > dense {
		t.Fatalf("sparse state %dB not sublinear vs dense %dB at n=%d", sb, dense, n)
	}
}

// TestSparseStrobeEmitsSortedExactDiff: the stamp lists changed components
// in proc order, own component included at its sorted position, and the
// second strobe with no new information carries only the own tick.
func TestSparseStrobeEmitsSortedExactDiff(t *testing.T) {
	s := NewSparseStrobeVector(5, 64)
	s.OnStrobe(SparseStamp{{Proc: 9, Val: 3}, {Proc: 2, Val: 1}})
	got := s.Strobe()
	want := SparseStamp{{Proc: 2, Val: 1}, {Proc: 5, Val: 1}, {Proc: 9, Val: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("first stamp = %v, want %v", got, want)
	}
	got = s.Strobe()
	want = SparseStamp{{Proc: 5, Val: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("second stamp = %v, want %v", got, want)
	}
}

// TestSparseOnStrobeIgnoresJunk: out-of-range procs and zero values are
// no-ops, matching the dense merge.
func TestSparseOnStrobeIgnoresJunk(t *testing.T) {
	s := NewSparseStrobeVector(0, 8)
	s.OnStrobe(SparseStamp{{Proc: -1, Val: 9}, {Proc: 8, Val: 9}, {Proc: 3, Val: 0}})
	if s.ActivePeers() != 0 {
		t.Fatalf("junk entries created components: %d", s.ActivePeers())
	}
	// Stale (smaller) values must not regress a component.
	s.OnStrobe(SparseStamp{{Proc: 3, Val: 5}})
	s.OnStrobe(SparseStamp{{Proc: 3, Val: 2}})
	if v := s.Snapshot()[3]; v != 5 {
		t.Fatalf("component regressed to %d", v)
	}
}

// TestNewVectorStatePicksByDensity: the constructor switches representation
// at the documented cutoff.
func TestNewVectorStatePicksByDensity(t *testing.T) {
	if _, ok := NewVectorState(0, DenseSparseCutoff).(*DiffStrobeVector); !ok {
		t.Fatal("at the cutoff: want dense")
	}
	if _, ok := NewVectorState(0, DenseSparseCutoff+1).(*SparseStrobeVector); !ok {
		t.Fatal("above the cutoff: want sparse")
	}
}
