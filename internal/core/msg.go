// Package core implements the paper's primary contribution: predicate
// detection over the world plane using logical strobe clocks (Sections
// 3.3, 4.2, 5), with the physically-synchronized-clock detector of
// Mayo–Kearns/Stoller as the baseline, and the conjunctive
// Possibly/Definitely detector family of Garg–Waldecker/Cooper–Marzullo
// and Huang et al. [17].
//
// The package provides:
//
//   - Sensor: a network-plane process that observes world-plane attributes
//     and, on each sense event, ticks its clock and emits the protocol's
//     control traffic (strobe broadcast or direct checker report);
//   - VectorChecker / ScalarChecker: detection of *each occurrence* of a
//     relational predicate under the Instantaneously modality using strobe
//     vector / scalar clocks, with the race-aware "borderline bin" of
//     Section 5 (vector only — scalars cannot see races);
//   - PhysicalChecker: the ε-synchronized physical-clock detector;
//   - ConjunctiveChecker: interval-queue detection of Possibly(φ) and
//     Definitely(φ) for conjunctive φ;
//   - Score: confusion-matrix scoring of any detector's occurrences
//     against the world plane's ground-truth intervals.
package core

import (
	"pervasive/internal/clock"
	"pervasive/internal/sim"
)

// StrobeMsg is the control message broadcast by a sensor at each relevant
// (sense) event, per rules SVC1 / SSC1. Exactly one of Vec or Scalar is
// meaningful, chosen by the emitting sensor's clock kind.
type StrobeMsg struct {
	Proc int
	Seq  int // per-process sense event counter (1-based)
	// Epoch is bumped each time the sender recovers from a crash; the
	// checker uses it to tell "rebooted with a fresh Seq" apart from
	// "stale reordered strobe". 0 until the first recovery.
	Epoch int
	Var   string  // the bound variable that changed
	Value float64 // its new value
	// Vec is the strobe vector stamp (vector protocol).
	Vec clock.Vector
	// Scalar is the strobe scalar stamp (scalar protocol).
	Scalar uint64
	// Sparse is the differential strobe payload (diff-vector protocol):
	// only the components changed since the sender's previous broadcast
	// (Singhal–Kshemkalyani compression applied to strobes).
	Sparse clock.SparseStamp
}

// WireSize implements network.Payload: vector strobes carry O(n) state,
// scalar strobes O(1) (Section 4.2.2).
func (m StrobeMsg) WireSize() int {
	base := 2 /*proc*/ + 4 /*seq*/ + 2 /*var id*/ + 8 /*value*/
	if m.Epoch > 0 {
		base += 2 // epoch tag, only carried once a process has rebooted
	}
	switch {
	case m.Vec != nil:
		return base + 8*len(m.Vec)
	case m.Sparse != nil:
		return base + m.Sparse.WireBytes()
	}
	return base + 8
}

// Kind implements network.Payload.
func (m StrobeMsg) Kind() string {
	switch {
	case m.Vec != nil:
		return "strobe-vec"
	case m.Sparse != nil:
		return "strobe-diff"
	}
	return "strobe-scalar"
}

// FlightStamp returns the strobe's logical identity for the flight
// recorder. The clock component is the sender's own vector entry (which
// SVC1 ticked at the emitting sense event, so the differential payload
// always carries it), or the scalar value.
func (m StrobeMsg) FlightStamp() (epoch, seq int, clk uint64) {
	switch {
	case m.Vec != nil:
		if m.Proc >= 0 && m.Proc < len(m.Vec) {
			return m.Epoch, m.Seq, m.Vec[m.Proc]
		}
	case m.Sparse != nil:
		for _, e := range m.Sparse {
			if e.Proc == m.Proc {
				return m.Epoch, m.Seq, e.Val
			}
		}
	default:
		return m.Epoch, m.Seq, m.Scalar
	}
	return m.Epoch, m.Seq, 0
}

// ReportMsg is the direct sensor→checker report of the physical-clock
// detector: the sensed change with its local physical timestamp.
type ReportMsg struct {
	Proc  int
	Seq   int
	Var   string
	Value float64
	// TS is the sensor's physical clock reading at the sense event; with
	// an ε-synchronized service it is within ε of true time.
	TS sim.Time
}

// WireSize implements network.Payload.
func (m ReportMsg) WireSize() int { return 2 + 4 + 2 + 8 + 8 }

// Kind implements network.Payload.
func (m ReportMsg) Kind() string { return "phys-report" }

// IntervalMsg reports one closed local-conjunct-true interval to the
// conjunctive checker: the vector stamps of its delimiting events plus
// their true times (the latter used only for scoring and display, never by
// the detection logic).
type IntervalMsg struct {
	Proc    int
	Index   int // per-process interval counter (0-based)
	Open    clock.Vector
	Close   clock.Vector
	OpenAt  sim.Time
	CloseAt sim.Time
}

// WireSize implements network.Payload.
func (m IntervalMsg) WireSize() int { return 2 + 4 + 8*len(m.Open) + 8*len(m.Close) }

// Kind implements network.Payload.
func (m IntervalMsg) Kind() string { return "interval" }
