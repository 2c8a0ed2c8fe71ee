package sim

import (
	"fmt"

	"pervasive/internal/stats"
)

// Handler is a callback executed at its scheduled virtual time.
type Handler func(now Time)

// event is one entry of the engine's event list.
type event struct {
	at  Time
	pri uint64 // caller-supplied tie-break key, ahead of seq (see AtPri)
	seq uint64 // FIFO tie-break for equal (timestamp, pri)
	fn  Handler
}

// less orders events by (time, pri, seq).
func (a *event) less(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// Engine is a deterministic discrete-event simulator. The zero value is not
// usable; construct with NewEngine.
//
// The event list is a hand-rolled 4-ary min-heap of event values ordered by
// (time, pri, seq). Events are never cancelled — every scheduled event of
// the execution model fires — so the heap holds exactly the pending events
// and a steady-state schedule+step performs no allocation.
type Engine struct {
	now  Time
	seq  uint64
	heap []event
	rng  *stats.RNG
	// Executed counts handlers actually run, for kernel benchmarks.
	Executed uint64
	// Scheduled counts events accepted by At/After; MaxHeapDepth is the
	// event list's high-watermark. They are plain fields — the kernel is
	// single-threaded, so instrumentation costs one increment, not an
	// atomic — published to an obs registry at snapshot time by
	// obs.CollectEngine (sim cannot import obs, which uses sim.Time).
	Scheduled    uint64
	MaxHeapDepth int
}

// NewEngine creates an engine whose randomness derives from seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: stats.NewRNG(seed)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's root random stream. Components that need
// isolated streams should call RNG().Fork() once at setup.
func (e *Engine) RNG() *stats.RNG { return e.rng }

// Pending returns the number of events still scheduled to fire.
func (e *Engine) Pending() int { return len(e.heap) }

// NextAt returns the timestamp of the earliest pending event; ok is false
// when the event list is drained. Used by the sharded engine to skip empty
// epochs.
func (e *Engine) NextAt() (at Time, ok bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].at, true
}

// AdvanceTo moves virtual time forward to t without executing events. It is
// the epoch-barrier hook for the sharded engine: after a shard runs to an
// epoch end its clock is pinned there even if its own event list drained
// earlier, so cross-shard deliveries staged for the next epoch can never
// look like scheduling into the past. Moving backward panics.
func (e *Engine) AdvanceTo(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: AdvanceTo into the past (%v < %v)", t, e.now))
	}
	e.now = t
}

// siftUp restores the 4-ary heap property from leaf i toward the root.
func (e *Engine) siftUp(i int) {
	h := e.heap
	ev := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !ev.less(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// siftDown restores the 4-ary heap property from i toward the leaves.
func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	ev := h[i]
	for {
		first := i<<2 + 1 // leftmost child
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].less(&h[min]) {
				min = c
			}
		}
		if !h[min].less(&ev) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = ev
}

// At schedules fn to run at absolute virtual time at. Scheduling into the
// past panics: that always indicates a model bug.
func (e *Engine) At(at Time, fn Handler) { e.AtPri(at, 0, fn) }

// AtPri schedules fn at time at with an explicit priority key: events fire
// in (at, pri, seq) order. seq is the engine's insertion counter, so it is
// schedule-order dependent; pri lets callers impose an ordering that does
// not depend on when the event was inserted. The sharded engine derives
// pri from (source, per-source send counter), which makes event order at
// equal timestamps identical whether a delivery was scheduled directly
// (same shard) or staged through an epoch mailbox (cross shard). Local
// events keep pri 0 and therefore sort ahead of deliveries at the same
// instant.
func (e *Engine) AtPri(at Time, pri uint64, fn Handler) {
	if fn == nil {
		panic("sim: nil handler")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", at, e.now)) //lint:allow hotpath(cold panic path: the format and boxing run once, immediately before the process dies)
	}
	e.heap = append(e.heap, event{at: at, pri: pri, seq: e.seq, fn: fn}) //lint:allow hotpath(amortized growth: the heap doubles O(log n) times and stops growing once the event population peaks)
	e.seq++
	e.siftUp(len(e.heap) - 1)
	e.Scheduled++
	if len(e.heap) > e.MaxHeapDepth {
		e.MaxHeapDepth = len(e.heap)
	}
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d Duration, fn Handler) { e.At(e.now+d, fn) }

// Step executes the single earliest pending event, advancing virtual time.
// It reports whether an event was available.
func (e *Engine) Step() bool {
	h := e.heap
	if len(h) == 0 {
		return false
	}
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop the handler reference
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(0)
	}
	e.now = top.at
	e.Executed++
	top.fn(e.now)
	return true
}

// Run executes events in timestamp order until the event list drains or
// the next event lies strictly after until. Events scheduled exactly at
// until still run. It returns the virtual time at exit.
func (e *Engine) Run(until Time) Time {
	for len(e.heap) > 0 {
		if e.heap[0].at > until {
			e.now = until
			break
		}
		e.Step()
	}
	return e.now
}

// RunAll executes all pending events with no horizon. Use with workloads
// that are guaranteed to terminate.
func (e *Engine) RunAll() Time { return e.Run(Never) }
