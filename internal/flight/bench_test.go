package flight

import (
	"testing"

	"pervasive/internal/sim"
)

func BenchmarkRecord(b *testing.B) {
	r := New(8, DefaultPerProc)
	rec := Rec{Kind: Recv, Proc: 3, Peer: 1, At: sim.Time(1), Seq: 9, PeerClock: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.At = sim.Time(i)
		r.Record(rec)
	}
}

func BenchmarkRecordNil(b *testing.B) {
	var r *Recorder
	rec := Rec{Kind: Recv, Proc: 3}
	for i := 0; i < b.N; i++ {
		r.Record(rec)
	}
}
