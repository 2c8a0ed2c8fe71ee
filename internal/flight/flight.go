// Package flight is the always-on causal flight recorder: fixed-capacity
// per-process ring buffers of compact binary event records, stamped by
// the run's own logical clocks rather than wall time. Recording is
// allocation-free and, with the nil *Recorder, free — every exported
// method is a nil-receiver no-op, the same disabled fast path contract
// as internal/obs (enforced by pervalint's fastpath analyzer).
//
// The recorder never keeps a whole-run trace. Each process owns a ring
// of the last K events; a *trigger* — a fault-plan firing or a checker
// detection — flushes the rings of the involved processes into a Dump:
// the recent causal context of the thing that just happened, ordered by
// (engine time, process, record order) and carrying the strobe epoch,
// per-process sequence number and logical clock component of every
// event. cmd/tracedump reconstructs the happens-before DAG from those
// stamps (see dag.go).
//
// Recording is single-threaded: one recorder belongs to one DES run,
// and Record stores into the ring with no lock on the hot path.
package flight

import (
	"sync"

	"pervasive/internal/sim"
)

// Kind is the type of a recorded event.
type Kind uint8

// Event kinds. Sense/Recv/Drop are the network-plane half (recorded by
// sensors and the transport); Apply/Stale/Detect/Clear are the checker
// half; Crash/Recover are fault-plan transitions.
const (
	KindNone Kind = iota
	Sense         // local sense event: clock tick + strobe broadcast
	Recv          // transport delivered a message to this process
	Drop          // transport dropped a message bound for this process
	Apply         // checker applied a strobe to its view
	Stale         // checker discarded a strobe (stale seq/epoch/duplicate)
	Detect        // predicate became true in the checker's view
	Clear         // predicate became false again
	Crash         // fault plan took the process down
	Recover       // process rejoined: fresh clock, bumped epoch
)

var kindNames = [...]string{
	KindNone: "none",
	Sense:    "sense",
	Recv:     "recv",
	Drop:     "drop",
	Apply:    "apply",
	Stale:    "stale",
	Detect:   "detect",
	Clear:    "clear",
	Crash:    "crash",
	Recover:  "recover",
}

// String names the kind (the JSONL wire spelling).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "invalid"
}

// ParseKind inverts String; unknown names map to KindNone.
func ParseKind(s string) Kind {
	for k, name := range kindNames {
		if name == s && k != int(KindNone) {
			return Kind(k)
		}
	}
	return KindNone
}

// NoPeer marks a record without a counterpart process.
const NoPeer int32 = -1

// Rec is one binary flight record: a fixed-size value with no pointers,
// so ring writes are single struct stores and rings never anchor heap
// garbage. Clock is the *sender-side* logical component of the event
// (the emitting process's own vector entry, or the scalar value);
// PeerClock, on Recv/Apply records, is the counterpart component
// carried by the message — the pair is what lets tracedump check the
// strobe clock rules against the dump.
type Rec struct {
	Kind      Kind
	Proc      int32  // process the event happened at
	Peer      int32  // counterpart process, NoPeer when none
	Epoch     int32  // crash/recovery epoch of the stamped process
	Attr      uint32 // interned attribute/variable name, 0 = none
	Seq       uint64 // per-process, per-epoch sense sequence number
	At        sim.Time
	Clock     uint64
	PeerClock uint64
	Value     float64
}

// Stamp is the logical identity of a message as plain values: the field
// layout Rec uses for its Epoch/Seq/PeerClock columns. Transports carry
// a Stamp inside each Message so that delivery- and drop-time records
// are three integer copies, with no payload introspection.
type Stamp struct {
	Epoch int32
	Seq   uint64
	Clock uint64
}

// ring is one process's fixed-capacity event history.
type ring struct {
	buf   []Rec
	next  int    // index of the slot the next Record overwrites
	total uint64 // lifetime records, total > len(buf) means wrapped
}

// Recorder records flight events for n processes. The nil Recorder is
// the disabled fast path: every method is a no-op.
type Recorder struct {
	rings []ring

	// Attribute interning: Rec stores a uint32 id instead of a string so
	// records stay pointer-free. The table is tiny (bound variable names)
	// and read-mostly; sensors intern once per sense event.
	internMu sync.RWMutex
	names    []string
	ids      map[string]uint32

	trigMu  sync.Mutex
	trigger func(*Dump)
}

// New builds a recorder: n processes, the last perProc events kept per
// process. Record and Snapshot must be called from one goroutine (the
// DES thread).
func New(n, perProc int) *Recorder {
	if n <= 0 {
		n = 1
	}
	if perProc <= 0 {
		perProc = DefaultPerProc
	}
	r := &Recorder{
		rings: make([]ring, n),
		names: []string{""}, // id 0 = no attribute
		ids:   make(map[string]uint32, 8),
	}
	for i := range r.rings {
		r.rings[i].buf = make([]Rec, perProc)
	}
	return r
}

// DefaultPerProc is the per-process ring capacity when the caller does
// not choose one: enough to hold a detection's recent causal context
// (last ~quarter second of a busy sensor) without mattering for memory.
const DefaultPerProc = 256

// SetTrigger installs the dump sink invoked by TriggerDump. The harness
// uses it to attach the obs snapshot and collect dumps; fn runs on the
// triggering goroutine.
func (r *Recorder) SetTrigger(fn func(*Dump)) {
	if r == nil {
		return
	}
	r.trigMu.Lock()
	r.trigger = fn
	r.trigMu.Unlock()
}

// Intern maps an attribute/variable name to its stable record id.
// Id 0 is reserved for "no attribute"; Intern("") returns 0.
func (r *Recorder) Intern(name string) uint32 {
	if r == nil || name == "" {
		return 0
	}
	r.internMu.RLock()
	id, ok := r.ids[name]
	r.internMu.RUnlock()
	if ok {
		return id
	}
	r.internMu.Lock()
	defer r.internMu.Unlock()
	if id, ok := r.ids[name]; ok {
		return id
	}
	id = uint32(len(r.names))
	r.names = append(r.names, name)
	r.ids[name] = id
	return id
}

// AttrName inverts Intern; unknown ids return "".
func (r *Recorder) AttrName(id uint32) string {
	if r == nil || id == 0 {
		return ""
	}
	r.internMu.RLock()
	defer r.internMu.RUnlock()
	if int(id) >= len(r.names) {
		return ""
	}
	return r.names[id]
}

// Record appends one event to its process's ring, overwriting the
// oldest once full. Out-of-range processes are dropped silently — the
// recorder is diagnostics, it must never turn into a panic source.
// It is two bounds checks and a struct store, small enough to inline
// into the transport's per-delivery path, where the compiler stores the
// caller's Rec straight into the ring with no intermediate copy.
func (r *Recorder) Record(rec Rec) {
	if r == nil {
		return
	}
	p := uint(rec.Proc)
	if p >= uint(len(r.rings)) {
		return
	}
	g := &r.rings[p]
	g.buf[g.next] = rec
	g.next++
	if g.next == len(g.buf) {
		g.next = 0
	}
	g.total++
}

// snap copies one ring's contents oldest-first.
func (g *ring) snap(out []Rec) []Rec {
	if g.total >= uint64(len(g.buf)) {
		out = append(out, g.buf[g.next:]...)
		return append(out, g.buf[:g.next]...)
	}
	return append(out, g.buf[:g.next]...)
}

// TriggerDump snapshots the rings of the involved processes (all of
// them when procs is empty) into a Dump and hands it to the SetTrigger
// sink. trigger names what fired (e.g. "detect", "fault:crash(2)");
// at is the engine time of the firing.
func (r *Recorder) TriggerDump(trigger string, at sim.Time, procs ...int) {
	if r == nil {
		return
	}
	d := r.Snapshot(trigger, at, procs...)
	r.trigMu.Lock()
	fn := r.trigger
	r.trigMu.Unlock()
	if fn != nil {
		fn(d)
	}
}
