package network

import (
	"testing"

	"pervasive/internal/flight"
	"pervasive/internal/sim"
)

// adjacency is a topology over precomputed neighbor lists, so Neighbors
// costs no allocation and an allocation count measures the transport
// alone.
type adjacency [][]int

func (a adjacency) N() int                { return len(a) }
func (a adjacency) Neighbors(i int) []int { return a[i] }

func meshAdjacency(n int) adjacency {
	a := make(adjacency, n)
	for i := range a {
		for j := 0; j < n; j++ {
			if j != i {
				a[i] = append(a[i], j)
			}
		}
	}
	return a
}

// broadcastAllocs is the mean allocation count of one 7-destination
// broadcast on an 8-node mesh, delivered to completion. The payload is
// boxed once, outside the measured loop, as a strobe payload is by its
// sender.
func broadcastAllocs(flood bool) float64 {
	eng, nt := newTestNet(meshAdjacency(8), sim.DeltaBounded{Min: 1, Max: 50})
	nt.Flood = flood
	for i := 0; i < nt.N(); i++ {
		nt.Register(i, func(Message, sim.Time) {})
	}
	var pl Payload = Raw{K: "strobe", Size: 12}
	return testing.AllocsPerRun(200, func() {
		nt.BroadcastStamped(0, pl, flight.Stamp{Epoch: 1, Seq: 1})
		eng.RunAll()
	})
}

func TestNetBroadcastAllocatesNothing(t *testing.T) {
	if got := broadcastAllocs(false); got != 0 {
		t.Errorf("direct broadcast: %v allocs, want 0", got)
	}
	if got := broadcastAllocs(true); got != 0 {
		t.Errorf("flood broadcast: %v allocs, want 0", got)
	}
}

// TestShardPartAllocatesOnlyCrossShard checks that same-shard deliveries
// go through the part's slot pool and only the cross-shard ones (nodes
// 4..7 from node 0, with 2 shards over 8 nodes) stage a closure.
func TestShardPartAllocatesOnlyCrossShard(t *testing.T) {
	const n = 8
	sh := sim.NewShards(2, 5, 7)
	smap := ShardMap{Procs: n, Shards: 2}
	sn := NewSharded(sh, meshAdjacency(n), sim.DeltaBounded{Min: 5, Max: 50}, smap, 7)
	for i := 0; i < n; i++ {
		sn.Register(i, func(Message, sim.Time) {})
	}
	cross := 0
	for dst := 1; dst < n; dst++ {
		if smap.Of(dst) != smap.Of(0) {
			cross++
		}
	}
	var pl Payload = Raw{K: "strobe", Size: 12}
	part := sn.Part(smap.Of(0))
	got := testing.AllocsPerRun(200, func() {
		part.BroadcastStamped(0, pl, flight.Stamp{Epoch: 1, Seq: 1})
		sh.RunAll()
	})
	if got != float64(cross) {
		t.Errorf("sharded broadcast: %v allocs, want %d (one per cross-shard destination)", got, cross)
	}
	if d := sn.TotalStats().Delivered; d == 0 || d%(n-1) != 0 {
		t.Errorf("delivered %d, want a multiple of %d", d, n-1)
	}
}

// TestSlotReuseKeepsDeliveredMessage checks that a handler holding a
// delivered Message keeps its fields after later deliveries reuse the
// slot, and that a slot on the free list holds no payload.
func TestSlotReuseKeepsDeliveredMessage(t *testing.T) {
	for _, flood := range []bool{false, true} {
		eng, nt := newTestNet(FullMesh{Nodes: 3}, sim.DeltaBounded{Min: 5, Max: 5})
		nt.Flood = flood
		var kept []Message
		nt.Register(1, func(m Message, now sim.Time) { kept = append(kept, m) })
		for i := 0; i < 4; i++ {
			i := i
			eng.At(sim.Time(10*(i+1)), func(sim.Time) {
				nt.BroadcastStamped(0, Raw{K: "k", Size: i + 1}, flight.Stamp{Seq: uint64(i + 1)})
			})
		}
		eng.RunAll()
		if len(kept) != 4 {
			t.Fatalf("flood=%v: process 1 got %d messages, want 4", flood, len(kept))
		}
		for i, m := range kept {
			if m.Src != 0 || m.Dst != 1 || m.SentAt != sim.Time(10*(i+1)) ||
				m.Stamp.Seq != uint64(i+1) || m.Payload.(Raw).Size != i+1 {
				t.Errorf("flood=%v: kept message %d changed after slot reuse: %+v", flood, i, m)
			}
		}
		if nt.slots == nil {
			t.Fatalf("flood=%v: no slot returned to the free list", flood)
		}
		for s := nt.slots; s != nil; s = s.next {
			if s.m.Payload != nil {
				t.Errorf("flood=%v: drained slot still holds payload %v", flood, s.m.Payload)
			}
		}
	}
}
