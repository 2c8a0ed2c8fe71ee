package clock

import (
	"fmt"
	"testing"
)

// Dense-vs-sparse merge and reset costs across system sizes, measuring the
// O(active peers) claim: the sparse clock's cost tracks the stamp size (a
// neighborhood's worth of entries, fixed at 8 here), the dense clock pays
// for its p-length vectors. Run with:
//
//	go test -run xxx -bench 'MergeSparse|ClockReset' ./internal/clock/
var benchSizes = []int{8, 1024, 65536}

// benchStamp builds a neighborhood-sized stamp touching spread-out procs.
func benchStamp(n int) SparseStamp {
	k := 8
	if k > n-1 {
		k = n - 1
	}
	st := make(SparseStamp, 0, k)
	for i := 1; i <= k; i++ {
		st = append(st, SparseEntry{Proc: (i * (n - 1) / k) % n, Val: uint64(i)})
	}
	return st
}

func BenchmarkMergeSparseDense(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("p=%d", n), func(b *testing.B) {
			d := NewDiffStrobeVector(0, n)
			st := benchStamp(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st[0].Val = uint64(i) // keep the merge from becoming a pure no-op
				d.OnStrobe(st)
			}
		})
	}
}

func BenchmarkMergeSparseSparse(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("p=%d", n), func(b *testing.B) {
			s := NewSparseStrobeVector(0, n)
			st := benchStamp(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st[0].Val = uint64(i)
				s.OnStrobe(st)
			}
		})
	}
}

func BenchmarkClockResetDense(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("p=%d", n), func(b *testing.B) {
			v := NewVector(n)
			st := benchStamp(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.MergeSparse(st)
				v.Reset()
			}
		})
	}
}

func BenchmarkClockResetSparse(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("p=%d", n), func(b *testing.B) {
			s := NewSparseStrobeVector(0, n)
			st := benchStamp(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.OnStrobe(st)
				s.own, s.comps = 0, nil
			}
		})
	}
}
