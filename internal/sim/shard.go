package sim

import (
	"fmt"
	"sync"

	"pervasive/internal/stats"
)

// crossEvent is one cross-shard delivery staged in its sender's outbox
// until the next epoch barrier. pri carries the sender-derived priority key.
type crossEvent struct {
	at  Time
	pri uint64
	dst int32
	fn  Handler
}

// Shards runs S single-threaded Engines in lockstep epochs under
// conservative synchronization. The epoch length is the lookahead L — the
// global minimum cross-shard link delay — so a message sent during the
// epoch (E-L, E] arrives strictly after E and can be exchanged at the
// barrier without any shard ever seeing an event in its executed past.
// There are no null messages: the time bound itself is the guarantee.
//
// Cross-shard sends are staged in per-source outboxes (single writer: the
// sending shard) and, at the next barrier, scheduled straight into their
// destination engines with AtPri. The destination heap then orders them by
// (time, pri, seq) exactly as a same-shard AtPri call would. Transport
// priority keys are unique per message, so the barrier's insertion order
// never decides execution order, which is what makes results byte-identical
// at any shard count.
//
// With S=1 the barrier machinery short-circuits: Run degenerates to the
// single engine's Run loop, preserving the original single-heap fast path.
type Shards struct {
	engines   []*Engine
	outboxes  [][]crossEvent
	lookahead Duration
	floor     Time // all shards have executed everything at or before floor
	workers   int

	// Epochs counts barrier rounds; CrossSent counts cross-shard events
	// staged through mailboxes; MaxInFlight is the largest batch of cross
	// events exchanged at one barrier. Plain fields: they are touched only
	// between epochs, on the coordinating goroutine.
	Epochs      uint64
	CrossSent   uint64
	MaxInFlight int
}

// NewShards creates s engines with RNG streams forked deterministically
// from seed. lookahead must be positive for s > 1; models with a zero
// minimum delay (Synchronous, Unbounded) cannot be sharded. Note the
// determinism contract: model code must not draw from the shard engines'
// RNGs — those streams depend on the partitioning. Per-entity streams
// forked from a workload root are the shard-count-independent replacement.
func NewShards(s int, lookahead Duration, seed uint64) *Shards {
	if s < 1 {
		panic("sim: NewShards needs at least one shard")
	}
	if s > 1 && lookahead <= 0 {
		panic("sim: sharded run requires a positive minimum cross-shard delay (lookahead)")
	}
	root := stats.NewRNG(seed)
	sh := &Shards{
		engines:   make([]*Engine, s),
		outboxes:  make([][]crossEvent, s),
		lookahead: lookahead,
		workers:   1,
	}
	for k := range sh.engines {
		sh.engines[k] = NewEngine(root.Uint64())
	}
	return sh
}

// N returns the shard count.
func (sh *Shards) N() int { return len(sh.engines) }

// Engine returns shard k's event engine.
func (sh *Shards) Engine(k int) *Engine { return sh.engines[k] }

// Lookahead returns the epoch length L.
func (sh *Shards) Lookahead() Duration { return sh.lookahead }

// Now returns the global time floor: every shard has executed all events
// at or before it.
func (sh *Shards) Now() Time { return sh.floor }

// SetWorkers sets how many shards run concurrently inside an epoch; w <= 1
// runs them sequentially in shard order. Either way the outcome is
// identical — shards share no mutable state during an epoch — so this only
// trades goroutines for wall clock.
func (sh *Shards) SetWorkers(w int) {
	if w < 1 {
		w = 1
	}
	sh.workers = w
}

// CrossFrom stages a delivery from shard src into shard dst at time at with
// priority key pri. It must be called either from src's goroutine during an
// epoch or from the coordinating goroutine between runs (setup).
func (sh *Shards) CrossFrom(src, dst int, at Time, pri uint64, fn Handler) {
	if fn == nil {
		panic("sim: nil handler")
	}
	sh.outboxes[src] = append(sh.outboxes[src], crossEvent{at: at, pri: pri, dst: int32(dst), fn: fn})
}

// collect drains every outbox, in shard order, into the destination
// engines. An event already at or before the floor means a sender beat the
// lookahead — the conservative-synchronization invariant is broken — so it
// panics rather than silently reordering history.
func (sh *Shards) collect() {
	batch := 0
	for k, out := range sh.outboxes {
		for i, ev := range out {
			if ev.at <= sh.floor && !(sh.floor == 0 && ev.at == 0) {
				panic(fmt.Sprintf("sim: cross-shard event at %v violates lookahead (floor %v)", ev.at, sh.floor))
			}
			sh.engines[ev.dst].AtPri(ev.at, ev.pri, ev.fn)
			out[i] = crossEvent{} // drop the fn reference
		}
		batch += len(out)
		sh.outboxes[k] = out[:0]
	}
	sh.CrossSent += uint64(batch)
	if batch > sh.MaxInFlight {
		sh.MaxInFlight = batch
	}
}

// idle reports whether no work remains anywhere: outboxes must already be
// collected.
func (sh *Shards) idle() bool {
	for _, e := range sh.engines {
		if e.Pending() > 0 {
			return false
		}
	}
	return true
}

// nextEventAt returns the earliest event time across all engines. Call
// only when not idle.
func (sh *Shards) nextEventAt() Time {
	min := Never
	for _, e := range sh.engines {
		if at, ok := e.NextAt(); ok && at < min {
			min = at
		}
	}
	return min
}

// runEpoch executes every shard up to end. With workers > 1 shards run on
// their own goroutines; they share no mutable state during the epoch
// (outboxes are single-writer), so the join is the only synchronization.
func (sh *Shards) runEpoch(end Time) {
	if sh.workers > 1 && len(sh.engines) > 1 {
		var wg sync.WaitGroup
		wg.Add(len(sh.engines))
		for _, e := range sh.engines {
			go func(e *Engine) {
				defer wg.Done()
				e.Run(end)
				if e.Now() < end {
					e.AdvanceTo(end)
				}
			}(e)
		}
		wg.Wait()
	} else {
		for _, e := range sh.engines {
			e.Run(end)
			if e.Now() < end {
				e.AdvanceTo(end)
			}
		}
	}
	sh.Epochs++
}

// Run advances the whole sharded world to until (events exactly at until
// still run, matching Engine.Run) and returns the global floor at exit. It
// returns early when every event list and mailbox drains.
func (sh *Shards) Run(until Time) Time {
	if len(sh.engines) == 1 {
		// Single-heap fast path: no barriers, no epoch slicing. Setup-time
		// cross events (src==dst==0) still drain through the mailbox so
		// the S=1 path exercises the same staging API.
		sh.collect()
		e := sh.engines[0]
		e.Run(until)
		sh.floor = e.Now()
		return sh.floor
	}
	for sh.floor < until {
		sh.collect()
		if sh.idle() {
			break
		}
		end := sh.floor + sh.lookahead
		if end < sh.floor { // overflow near Never
			end = until
		}
		// Skip-ahead: if nothing anywhere fires before next, the window
		// (floor, next] is safe — anything sent at t >= next lands at or
		// after next+L, strictly past the barrier.
		if next := sh.nextEventAt(); next > end {
			end = next
		}
		if end > until {
			end = until
		}
		sh.runEpoch(end)
		sh.floor = end
	}
	return sh.floor
}

// RunAll runs until every event list and cross-shard mailbox is empty. Use
// with workloads that are guaranteed to terminate.
func (sh *Shards) RunAll() Time { return sh.Run(Never) }

// ExecutedTotal sums handler executions across shards; the total is
// shard-count-invariant for a deterministic model.
func (sh *Shards) ExecutedTotal() uint64 {
	var n uint64
	for _, e := range sh.engines {
		n += e.Executed
	}
	return n
}
