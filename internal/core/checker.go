package core

import (
	"pervasive/internal/clock"
	"pervasive/internal/flight"
	"pervasive/internal/network"
	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
)

// StrobeChecker is the distinguished root process P0 of the strobe-clock
// detection algorithms: it consumes the system-wide strobe broadcasts,
// maintains the latest sensed value per process, and detects *each
// occurrence* of the global predicate becoming true in its (strobe-order)
// view of the world plane.
//
// With vector strobes the checker is race-aware: when the event that flips
// the predicate is concurrent (in the strobe partial order) with another
// process's latest event, and the predicate's truth depends on their
// unknowable relative order, the flip is classified into the borderline
// bin rather than reported as definite (Section 5). With scalar strobes
// no concurrency information exists, so every flip is reported as definite
// — the source of the scalar protocol's false positives (Section 3.3).
type StrobeChecker struct {
	n         int
	pred      predicate.Cond
	raceAware bool

	vals       []map[string]float64
	stamps     []clock.Vector // latest applied vector stamp per proc (nil = none)
	lastSeq    []int
	lastEpoch  []int // crash/recovery epoch per proc (see StrobeMsg.Epoch)
	lastChange []change
	// state is the checker's view pre-boxed as a predicate.State: Holds
	// is called several times per strobe (once per apply plus the
	// four-state race probes), and re-boxing checkerState at each call
	// would allocate on the hot path. vals is never reassigned, so the
	// boxed header stays valid.
	state predicate.State
	// recon reconstructs each sender's full vector from differential
	// strobes (DiffVectorStrobe protocol); nil entries until first diff.
	recon []clock.Vector
	// stampBuf holds one reusable vector per proc for the differential
	// path: the reconstruction is copied into the scratch buffer instead
	// of cloned per strobe (the previous stamp of that proc is being
	// replaced anyway, so no live reader aliases it).
	stampBuf []clock.Vector

	cur      bool
	occ      []Occurrence
	markers  []sim.Time
	finished bool

	// Notify, if set, is invoked when the predicate becomes true in the
	// checker's view — the hook through which detection triggers
	// actuation (the sense→detect→actuate loop of Section 2.2). The
	// occurrence's End is not yet known at call time.
	Notify func(o Occurrence)

	// NaiveRace switches race detection to the naive criterion — flag
	// whenever the applied event is concurrent with any other process's
	// latest event, regardless of whether the predicate's history depends
	// on their order. Used by the A2 ablation; the default four-state
	// criterion flags only order-sensitive races.
	NaiveRace bool

	// Applied counts strobes applied (non-stale).
	Applied int64
	// Stale counts strobes discarded as stale/duplicate/out-of-order.
	Stale int64

	// Resolved obs instruments; nil (no-ops) until SetObs.
	obsEvals      *obs.Counter
	obsDetections *obs.Counter
	obsApplied    *obs.Counter
	obsStale      *obs.Counter
	obsRaces      *obs.Counter

	// Flight recorder wiring; fl nil (no-op) until SetFlight. flSelf is
	// the checker's own process index on the transport.
	fl     *flight.Recorder
	flSelf int32
}

// SetObs attaches runtime metrics: predicate evaluations (including the
// four-state probes of race detection), detections, applied/stale
// strobes and race markers. SetObs(nil) detaches.
func (c *StrobeChecker) SetObs(r *obs.Registry) {
	c.obsEvals = r.Counter("checker.pred_evals")
	c.obsDetections = r.Counter("checker.detections")
	c.obsApplied = r.Counter("checker.strobes_applied")
	c.obsStale = r.Counter("checker.strobes_stale")
	c.obsRaces = r.Counter("checker.race_markers")
}

// SetFlight attaches a flight recorder: applied/stale strobes and the
// predicate's detect/clear edges are recorded at the checker's ring
// (self is its transport index), and every detection rising edge
// triggers a full dump — the recent causal context that explains the
// detection. SetFlight(nil, 0) detaches.
func (c *StrobeChecker) SetFlight(r *flight.Recorder, self int) {
	c.fl = r
	c.flSelf = int32(self)
}

type change struct {
	varName string
	prev    float64
	valid   bool
}

// NewVectorChecker creates the race-aware checker for the strobe-vector
// protocol over n sensor processes.
func NewVectorChecker(n int, pred predicate.Cond) *StrobeChecker {
	return newStrobeChecker(n, pred, true)
}

// NewScalarChecker creates the checker for the strobe-scalar protocol; it
// cannot detect races.
func NewScalarChecker(n int, pred predicate.Cond) *StrobeChecker {
	return newStrobeChecker(n, pred, false)
}

func newStrobeChecker(n int, pred predicate.Cond, raceAware bool) *StrobeChecker {
	c := &StrobeChecker{
		n: n, pred: pred, raceAware: raceAware,
		vals:       make([]map[string]float64, n),
		stamps:     make([]clock.Vector, n),
		lastSeq:    make([]int, n),
		lastEpoch:  make([]int, n),
		lastChange: make([]change, n),
	}
	for i := range c.vals {
		c.vals[i] = make(map[string]float64)
	}
	c.state = checkerState{c.vals}
	return c
}

// Register installs the checker on transport node idx.
func (c *StrobeChecker) Register(net *network.Net, idx int) {
	net.Register(idx, func(m network.Message, now sim.Time) {
		if strobe, ok := m.Payload.(StrobeMsg); ok {
			c.OnStrobe(strobe, now)
		}
	})
}

// state adapts the checker's view to predicate.State.
type checkerState struct{ vals []map[string]float64 }

// Get implements predicate.State.
func (s checkerState) Get(proc int, name string) float64 {
	if proc < 0 || proc >= len(s.vals) {
		return 0
	}
	return s.vals[proc][name]
}

// NumProcs implements predicate.State.
func (s checkerState) NumProcs() int { return len(s.vals) }

// OnStrobe applies one received strobe to the view and updates detection
// state. Strobes from a process are applied in increasing Seq order;
// older ones that arrive late (reordered or after a loss) are discarded,
// which keeps the effect of a loss local in time (Section 4.2.2).
func (c *StrobeChecker) OnStrobe(m StrobeMsg, now sim.Time) {
	if c.finished {
		return
	}
	if m.Proc < 0 || m.Proc >= c.n {
		c.Stale++
		c.obsStale.Inc()
		return
	}
	// Epoch discipline: a recovered process restarts with Seq 1 under a
	// bumped epoch. Stamps from an older epoch are pre-crash stragglers —
	// discarding them (and resetting the per-process order state on the
	// bump) is what keeps the checker from merging pre-crash strobe state
	// into the rebooted process's fresh causal history.
	switch {
	case m.Epoch < c.lastEpoch[m.Proc]:
		c.Stale++
		c.obsStale.Inc()
		c.recordStale(m, now)
		return
	case m.Epoch > c.lastEpoch[m.Proc]:
		c.lastEpoch[m.Proc] = m.Epoch
		c.lastSeq[m.Proc] = 0
		c.stamps[m.Proc] = nil
		c.lastChange[m.Proc] = change{}
		if c.recon != nil {
			c.recon[m.Proc].Reset()
		}
	}
	if m.Seq <= c.lastSeq[m.Proc] {
		c.Stale++
		c.obsStale.Inc()
		c.recordStale(m, now)
		return
	}
	c.lastSeq[m.Proc] = m.Seq
	c.Applied++
	c.obsApplied.Inc()
	if c.fl != nil {
		epoch, seq, clk := m.FlightStamp()
		c.fl.Record(flight.Rec{
			Kind: flight.Apply, Proc: c.flSelf, Peer: int32(m.Proc),
			Epoch: int32(epoch), Seq: uint64(seq), At: now,
			Attr: c.fl.Intern(m.Var), PeerClock: clk, Value: m.Value,
		})
	}

	// Differential strobes: rebuild the sender's full vector by merging
	// its changed components into the per-sender reconstruction. After a
	// lost diff the reconstruction under-knows until the missing
	// components change again — which can only add false concurrency
	// (more borderline flags), never false order. The reconstructions
	// exist solely to feed race detection, so a race-blind checker skips
	// them entirely — that is what keeps checker memory O(n), not O(n²),
	// at scale.
	if m.Vec == nil && m.Sparse != nil && c.raceAware {
		if c.recon == nil {
			c.recon = make([]clock.Vector, c.n)
			c.stampBuf = make([]clock.Vector, c.n)
		}
		if c.recon[m.Proc] == nil {
			c.recon[m.Proc] = clock.NewVector(c.n)
			c.stampBuf[m.Proc] = clock.NewVector(c.n)
		}
		c.recon[m.Proc].MergeSparse(m.Sparse)
		// Copy into the per-proc scratch stamp rather than cloning: only
		// c.stamps[m.Proc] can alias the buffer, and it is replaced below.
		copy(c.stampBuf[m.Proc], c.recon[m.Proc])
		m.Vec = c.stampBuf[m.Proc]
	}

	prev := c.vals[m.Proc][m.Var]
	c.vals[m.Proc][m.Var] = m.Value
	c.obsEvals.Inc()
	settled := c.pred.Holds(c.state)

	race := false
	if c.raceAware && m.Vec != nil {
		race = c.detectRace(m, prev)
	}

	c.lastChange[m.Proc] = change{varName: m.Var, prev: prev, valid: true}
	if m.Vec != nil {
		c.stamps[m.Proc] = m.Vec
	}

	if race {
		c.markers = append(c.markers, now)
		c.obsRaces.Inc()
	}
	if settled != c.cur {
		if settled {
			c.obsDetections.Inc()
			o := Occurrence{Start: now, Borderline: race}
			c.occ = append(c.occ, o)
			if c.Notify != nil {
				c.Notify(o)
			}
			if c.fl != nil {
				c.fl.Record(flight.Rec{
					Kind: flight.Detect, Proc: c.flSelf, Peer: flight.NoPeer,
					At: now, Value: 1,
				})
				// Dump every ring: the predicate is global, so the causal
				// context of a detection spans the whole fleet.
				c.fl.TriggerDump("detect", now)
			}
		} else if len(c.occ) > 0 {
			c.occ[len(c.occ)-1].End = now
			if race {
				c.occ[len(c.occ)-1].Borderline = true
			}
			if c.fl != nil {
				c.fl.Record(flight.Rec{
					Kind: flight.Clear, Proc: c.flSelf, Peer: flight.NoPeer, At: now,
				})
			}
		}
		c.cur = settled
	}
}

// recordStale stamps one discarded strobe at the checker's ring.
func (c *StrobeChecker) recordStale(m StrobeMsg, now sim.Time) {
	if c.fl == nil {
		return
	}
	epoch, seq, clk := m.FlightStamp()
	c.fl.Record(flight.Rec{
		Kind: flight.Stale, Proc: c.flSelf, Peer: int32(m.Proc),
		Epoch: int32(epoch), Seq: uint64(seq), At: now,
		Attr: c.fl.Intern(m.Var), PeerClock: clk, Value: m.Value,
	})
}

// detectRace reports whether the just-applied event e (from m.Proc, whose
// variable previously held prevI) races with another process's latest
// event e' in a way that makes the predicate's history ambiguous. The two
// events race when their stamps are concurrent — the strobe order cannot
// tell which happened first. Consider the four states over {e, e'}
// applied/not: s00, s10 (only e), s01 (only e'), s11 (both). The true
// history passed through s00 → (s10 or s01) → s11 in an unknowable order.
// The order matters exactly when the endpoints agree (φ(s00) == φ(s11))
// but the middles differ (φ(s10) ≠ φ(s01)): one order contains a
// transient φ-change that the other lacks, so whether φ held in between
// cannot be decided. When the endpoints differ, the net transition
// happens under either order (only its attribution shifts within the race
// window) and the observation is robust — e.g. two concurrent rises that
// jointly push a sum over its threshold are correctly left unflagged.
func (c *StrobeChecker) detectRace(m StrobeMsg, prevI float64) bool {
	for j := 0; j < c.n; j++ {
		if j == m.Proc || c.stamps[j] == nil || !c.lastChange[j].valid {
			continue
		}
		if !m.Vec.ConcurrentWith(c.stamps[j]) {
			continue
		}
		if c.NaiveRace {
			return true
		}
		ch := c.lastChange[j]
		curJ := c.vals[j][ch.varName]
		curI := c.vals[m.Proc][m.Var]

		phi11 := c.phi()
		c.vals[j][ch.varName] = ch.prev // s10: only e
		phi10 := c.phi()
		c.vals[m.Proc][m.Var] = prevI // s00: neither
		phi00 := c.phi()
		c.vals[j][ch.varName] = curJ // s01: only e'
		phi01 := c.phi()
		c.vals[m.Proc][m.Var] = curI // restore s11

		if phi00 == phi11 && phi10 != phi01 {
			return true
		}
	}
	return false
}

// phi evaluates the predicate against the checker's current view.
func (c *StrobeChecker) phi() bool {
	c.obsEvals.Inc()
	return c.pred.Holds(c.state)
}

// Finish closes any open occurrence at the horizon. Further strobes are
// ignored.
func (c *StrobeChecker) Finish(horizon sim.Time) {
	if c.finished {
		return
	}
	c.finished = true
	c.occ = closeOpen(c.occ, c.cur, horizon)
}

// Occurrences returns the detected occurrences (call Finish first).
func (c *StrobeChecker) Occurrences() []Occurrence { return c.occ }

// Markers returns the view times at which race ambiguity was observed.
func (c *StrobeChecker) Markers() []sim.Time { return c.markers }

// View returns the checker's current value of (proc, var) — the evolving
// "map of the physical world" of Section 1.
//
//lint:allow deadcode(test hook: the live engine's crash-recovery test reads the checker view to prove the post-recovery strobe was applied)
func (c *StrobeChecker) View(proc int, name string) float64 {
	return checkerState{c.vals}.Get(proc, name)
}

// StateBytes estimates the checker's resident footprint: per-process
// admission and value state plus the race-aware reconstruction buffers
// when allocated. Same per-entry costs as checker.Aggregator.StateBytes,
// so the flat-vs-tree memory comparison in the cmd/bench checker suite compares
// like with like.
func (c *StrobeChecker) StateBytes() int {
	b := 96 + c.n*(8+8+8+8+8+32) // headers, slices, lastSeq/lastEpoch/lastChange
	for _, m := range c.vals {
		b += 48 + 32*len(m)
	}
	for _, v := range c.stamps {
		b += 8 * cap(v)
	}
	for _, v := range c.recon {
		b += 8 * cap(v)
	}
	for _, v := range c.stampBuf {
		b += 8 * cap(v)
	}
	return b
}
