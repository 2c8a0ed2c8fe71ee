package clock

// Sparse strobe vectors complete the Singhal–Kshemkalyani adaptation: the
// wire format has been sparse since the differential clock landed, but the
// *local* state was still two dense p-length vectors per process, which is
// what caps the system size (p processes × O(p) words each = O(p²) memory
// system-wide). SparseStrobeVector stores only the components this process
// has actually heard of — O(active peers), not O(p) — as sorted (proc,
// val, sent-at-last-strobe) triples. In a neighborhood-scoped deployment a
// sensor hears from its radio neighbors plus the checker, so active peers
// is bounded by the degree, independent of p.
//
// The representation is exact, not approximate: an absent component is
// exactly the dense clock's zero. The equivalence tests drive both
// representations through identical rule sequences and require identical
// stamps, so `NewVectorState` can pick by density without changing any
// observable behaviour.

// sparseComp is one known non-own component: its current merged value and
// the value at this process's last strobe (the differential baseline).
type sparseComp struct {
	proc int32
	val  uint64
	sent uint64
}

// sparseCompBytes is the in-memory footprint of one component (4-byte
// proc id padded to 8, plus two 8-byte values).
const sparseCompBytes = 24

// SparseStrobeVector is a strobe vector clock with differential broadcast
// and O(active peers) local state. It follows the same SVC1/SVC2 rules as
// DiffStrobeVector and emits byte-identical stamps.
type SparseStrobeVector struct {
	me    int
	n     int
	own   uint64
	comps []sparseComp // sorted by proc; never contains me; vals never 0
}

// NewSparseStrobeVector returns process me's sparse differential strobe
// clock in an n-process system.
func NewSparseStrobeVector(me, n int) *SparseStrobeVector {
	if me < 0 || me >= n {
		panic("clock: process index out of range")
	}
	return &SparseStrobeVector{me: me, n: n}
}

// OwnClock returns the local component — the value a process reports as
// its own logical time without materializing a vector.
func (s *SparseStrobeVector) OwnClock() uint64 { return s.own }

// find returns the insertion index of proc in comps (binary search).
func (s *SparseStrobeVector) find(proc int) int {
	lo, hi := 0, len(s.comps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(s.comps[mid].proc) < proc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Strobe applies SVC1 and returns the sparse diff to broadcast: every
// component that changed since this process's previous strobe, in proc
// order, always including the freshly ticked local component — exactly
// the stamp DiffStrobeVector emits. One exact-size allocation.
func (s *SparseStrobeVector) Strobe() SparseStamp {
	s.own++ // SVC1
	changed := 1
	for i := range s.comps {
		if s.comps[i].val != s.comps[i].sent {
			changed++
		}
	}
	out := make(SparseStamp, 0, changed)
	placedOwn := false
	for i := range s.comps {
		c := &s.comps[i]
		if !placedOwn && int(c.proc) > s.me {
			out = append(out, SparseEntry{Proc: s.me, Val: s.own})
			placedOwn = true
		}
		if c.val != c.sent {
			out = append(out, SparseEntry{Proc: int(c.proc), Val: c.val})
			c.sent = c.val
		}
	}
	if !placedOwn {
		out = append(out, SparseEntry{Proc: s.me, Val: s.own})
	}
	return out
}

// OnStrobe applies SVC2 to a sparse stamp: componentwise max over the
// carried entries, no local tick. Unknown components are inserted in
// sorted position; zero-valued entries are no-ops, as they are for the
// dense merge. Out-of-range entries are ignored.
func (s *SparseStrobeVector) OnStrobe(st SparseStamp) {
	for _, e := range st {
		if e.Proc < 0 || e.Proc >= s.n {
			continue
		}
		if e.Proc == s.me {
			if e.Val > s.own {
				s.own = e.Val
			}
			continue
		}
		i := s.find(e.Proc)
		if i < len(s.comps) && int(s.comps[i].proc) == e.Proc {
			if e.Val > s.comps[i].val {
				s.comps[i].val = e.Val
			}
			continue
		}
		if e.Val == 0 {
			continue
		}
		s.comps = append(s.comps, sparseComp{}) //lint:allow hotpath(amortized growth: the component list grows once per newly-seen proc and then stabilizes at the contact-set size)
		copy(s.comps[i+1:], s.comps[i:len(s.comps)-1])
		s.comps[i] = sparseComp{proc: int32(e.Proc), val: e.Val}
	}
}

// Snapshot materializes the full dense vector. O(n) allocation — callers
// on hot paths should prefer OwnClock or the stamps themselves.
func (s *SparseStrobeVector) Snapshot() Vector {
	v := NewVector(s.n)
	v[s.me] = s.own //lint:allow clockrule(materializing a fresh dense copy of this clock for observers; the live sparse state is untouched)
	for _, c := range s.comps {
		v[c.proc] = c.val //lint:allow clockrule(same fresh-copy materialization as above)
	}
	return v
}

// StateBytes estimates the resident footprint of the clock state.
func (s *SparseStrobeVector) StateBytes() int {
	return 32 + cap(s.comps)*sparseCompBytes
}

// VectorState is the rule-method surface shared by the dense differential
// clock and the sparse sorted-pairs clock. Engines hold this interface so
// the representation is a capacity decision, not a protocol one.
type VectorState interface {
	// Strobe applies SVC1 and returns the differential stamp to broadcast.
	Strobe() SparseStamp
	// OnStrobe applies SVC2 to a received differential stamp.
	OnStrobe(SparseStamp)
	// Snapshot materializes the full dense vector (O(n); off the hot path).
	Snapshot() Vector
	// OwnClock returns the local component without materializing a vector.
	OwnClock() uint64
	// StateBytes estimates the resident footprint of the clock state.
	StateBytes() int
}

// DenseSparseCutoff is the system size above which NewVectorState picks
// the sparse representation: below it two dense n-vectors are at most a
// few KB and the flat arrays win on constant factors; above it the O(n)
// per-process state is what caps the system.
const DenseSparseCutoff = 128

// NewVectorState returns the density-appropriate strobe-vector state for
// process me of n.
func NewVectorState(me, n int) VectorState {
	if n <= DenseSparseCutoff {
		return NewDiffStrobeVector(me, n)
	}
	return NewSparseStrobeVector(me, n)
}
