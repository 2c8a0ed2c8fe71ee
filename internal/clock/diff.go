package clock

// Differential strobe vectors adapt the Singhal–Kshemkalyani vector-clock
// compression technique to the strobe protocol: instead of broadcasting
// the whole O(n) vector at every relevant event, a process sends only the
// components that changed since its *previous* broadcast. Receivers merge
// the sparse entries exactly as SVC2 merges full vectors.
//
// The technique is exact under reliable FIFO dissemination: every receiver
// has already merged the unchanged components from earlier strobes, so the
// merged knowledge after each strobe is identical to the full-vector
// protocol (verified by the equivalence tests and the A4 ablation). Under
// message loss a receiver can lag by the lost components until the next
// strobe that touches them; the clock stays monotonic either way — the
// same graceful degradation as full strobes, with less to lose per packet.

// SparseEntry is one changed component of a differential strobe.
type SparseEntry struct {
	Proc int
	Val  uint64
}

// SparseStamp is the payload of a differential strobe: the components
// that changed since the sender's last strobe.
type SparseStamp []SparseEntry

// WireBytes returns the on-air size: (proc id + value) per entry.
func (s SparseStamp) WireBytes() int { return len(s) * (2 + 8) }

// DiffStrobeVector is a strobe vector clock with differential broadcast.
type DiffStrobeVector struct {
	inner    *StrobeVector
	lastSent Vector
}

// NewDiffStrobeVector returns process me's differential strobe clock in an
// n-process system.
func NewDiffStrobeVector(me, n int) *DiffStrobeVector {
	return &DiffStrobeVector{
		inner:    NewStrobeVector(me, n),
		lastSent: NewVector(n),
	}
}

// Snapshot returns the full current vector (local state is always full;
// only the wire format is sparse).
func (d *DiffStrobeVector) Snapshot() Vector { return d.inner.Snapshot() }

// Strobe applies SVC1 and returns the sparse diff to broadcast: every
// component that changed since this process's previous broadcast (always
// at least the local component). The stamp is the only allocation: the
// inner clock is ticked in place (StrobeVector.Strobe would clone a
// snapshot just to diff against it) and the changed components are
// counted first so the stamp is made at its exact size — this sits in
// the E7/A4 per-event hot loop.
func (d *DiffStrobeVector) Strobe() SparseStamp {
	d.inner.v[d.inner.me]++ // SVC1, without Strobe()'s snapshot clone
	cur := d.inner.v
	changed := 0
	for i, v := range cur {
		if v != d.lastSent[i] {
			changed++
		}
	}
	out := make(SparseStamp, 0, changed) //lint:allow hotpath(the stamp escapes to the caller by contract; counting changed components first makes this the one exact-size allocation per strobe)
	for i, v := range cur {
		if v != d.lastSent[i] {
			out = append(out, SparseEntry{Proc: i, Val: v}) //lint:allow hotpath(capacity was preallocated to the exact changed count two lines up; this append never grows)
			d.lastSent[i] = v
		}
	}
	return out
}

// MergeSparse applies SVC2 to a differential strobe: componentwise max
// over the carried entries, no local tick. Out-of-range entries are
// ignored. It is the sparse counterpart of MergeFrom, shared by the
// differential clock and the checkers' per-sender reconstructions.
func (v Vector) MergeSparse(s SparseStamp) {
	for _, e := range s {
		if e.Proc >= 0 && e.Proc < len(v) && e.Val > v[e.Proc] {
			v[e.Proc] = e.Val
		}
	}
}

// OnStrobe applies SVC2 to a sparse stamp: componentwise max over the
// carried entries, no local tick.
func (d *DiffStrobeVector) OnStrobe(s SparseStamp) {
	d.inner.v.MergeSparse(s)
}

// OwnClock returns the local component without cloning the vector.
func (d *DiffStrobeVector) OwnClock() uint64 { return d.inner.v[d.inner.me] }

// StateBytes estimates the resident footprint of the clock state: the
// current vector plus the last-sent baseline, both dense.
func (d *DiffStrobeVector) StateBytes() int {
	return 16 + 8*(len(d.inner.v)+len(d.lastSent))
}
