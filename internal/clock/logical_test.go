package clock

import (
	"testing"

	"pervasive/internal/stats"
)

// --- a tiny random message-passing execution generator for clock tests ---

type testEvent struct {
	proc    int
	index   int // position in its process's sequence
	lamport uint64
	vec     Vector
	preds   []int // indices into events: program-order + message edges
}

type testExecution struct {
	events []testEvent
}

// genExecution produces a random n-process execution with the given number
// of steps, stamping every event with both Lamport and Mattern/Fidge
// clocks, and recording the true causality edges.
func genExecution(r *stats.RNG, n, steps int) *testExecution {
	type inflight struct {
		dst     int
		lamport uint64
		vec     Vector
		sendIdx int
	}
	ex := &testExecution{}
	lams := make([]*Lamport, n)
	vecs := make([]*VectorClock, n)
	lastIdx := make([]int, n) // last event index per process, -1 if none
	for i := range lams {
		lams[i] = &Lamport{}
		vecs[i] = NewVectorClock(i, n)
		lastIdx[i] = -1
	}
	var mail []inflight
	for s := 0; s < steps; s++ {
		p := r.Intn(n)
		op := r.Intn(3)
		ev := testEvent{proc: p, index: len(ex.events)}
		if lastIdx[p] >= 0 {
			ev.preds = append(ev.preds, lastIdx[p])
		}
		switch {
		case op == 2 && len(mail) > 0:
			// receive a random in-flight message (possibly to another process;
			// redirect it to p for simplicity — the edge is what matters)
			mi := r.Intn(len(mail))
			m := mail[mi]
			mail = append(mail[:mi], mail[mi+1:]...)
			ev.lamport = lams[p].Receive(m.lamport)
			ev.vec = vecs[p].Receive(m.vec)
			ev.preds = append(ev.preds, m.sendIdx)
		case op == 1:
			// send to a random other process
			ev.lamport = lams[p].Send()
			ev.vec = vecs[p].Send()
			mail = append(mail, inflight{
				dst: r.Intn(n), lamport: ev.lamport,
				vec: ev.vec.Clone(), sendIdx: ev.index,
			})
		default:
			ev.lamport = lams[p].Tick()
			ev.vec = vecs[p].Tick()
		}
		lastIdx[p] = ev.index
		ex.events = append(ex.events, ev)
	}
	return ex
}

// happensBefore computes the transitive closure of the causality edges.
func (ex *testExecution) happensBefore() [][]bool {
	n := len(ex.events)
	hb := make([][]bool, n)
	for i := range hb {
		hb[i] = make([]bool, n)
	}
	// events are created in a valid topological order, so one forward pass
	// over predecessors suffices
	for j, ev := range ex.events {
		for _, p := range ev.preds {
			hb[p][j] = true
			for k := 0; k < n; k++ {
				if hb[k][p] {
					hb[k][j] = true
				}
			}
		}
	}
	return hb
}

func TestVectorClockIsomorphism(t *testing.T) {
	// The fundamental theorem: e → f ⟺ V(e) < V(f). The paper relies on
	// this isomorphism for causality-based clocks (§4.1).
	r := stats.NewRNG(1234)
	for trial := 0; trial < 20; trial++ {
		ex := genExecution(r, 2+r.Intn(5), 60)
		hb := ex.happensBefore()
		for i := range ex.events {
			for j := range ex.events {
				if i == j {
					continue
				}
				vlt := ex.events[i].vec.HappensBefore(ex.events[j].vec)
				if hb[i][j] != vlt {
					t.Fatalf("trial %d: events %d,%d: hb=%v but vectorBefore=%v (vi=%v vj=%v)",
						trial, i, j, hb[i][j], vlt, ex.events[i].vec, ex.events[j].vec)
				}
			}
		}
	}
}

func TestLamportConsistency(t *testing.T) {
	// Weak clock consistency: e → f ⇒ L(e) < L(f). The converse does not
	// hold (Lamport clocks cannot certify concurrency).
	r := stats.NewRNG(4321)
	for trial := 0; trial < 20; trial++ {
		ex := genExecution(r, 2+r.Intn(5), 60)
		hb := ex.happensBefore()
		for i := range ex.events {
			for j := range ex.events {
				if hb[i][j] && ex.events[i].lamport >= ex.events[j].lamport {
					t.Fatalf("trial %d: %d→%d but L=%d ≥ %d",
						trial, i, j, ex.events[i].lamport, ex.events[j].lamport)
				}
			}
		}
	}
}

func TestLamportConverseFailsSometimes(t *testing.T) {
	// Sanity: there exist concurrent events with ordered Lamport stamps —
	// the reason Mattern/Fidge clocks are "more powerful" (§4.2.3 item 5).
	r := stats.NewRNG(7)
	found := false
	for trial := 0; trial < 50 && !found; trial++ {
		ex := genExecution(r, 3, 40)
		hb := ex.happensBefore()
		for i := range ex.events {
			for j := range ex.events {
				if i != j && !hb[i][j] && !hb[j][i] &&
					ex.events[i].lamport < ex.events[j].lamport {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("never found concurrent events with ordered Lamport stamps")
	}
}

func TestLamportRules(t *testing.T) {
	var l Lamport
	if l.Read() != 0 {
		t.Fatal("fresh clock not at 0")
	}
	if l.Tick() != 1 {
		t.Fatal("SC1 tick failed")
	}
	if l.Send() != 2 {
		t.Fatal("SC2 send failed")
	}
	// SC3: max(2, 10) + 1 = 11
	if got := l.Receive(10); got != 11 {
		t.Fatalf("SC3 got %d want 11", got)
	}
	// SC3 with stale stamp: max(11, 3) + 1 = 12
	if got := l.Receive(3); got != 12 {
		t.Fatalf("SC3 stale got %d want 12", got)
	}
}

func TestVectorClockRules(t *testing.T) {
	c := NewVectorClock(1, 3)
	v1 := c.Tick()
	if v1.Compare(Vector{0, 1, 0}) != Same {
		t.Fatalf("VC1 got %v", v1)
	}
	v2 := c.Send()
	if v2.Compare(Vector{0, 2, 0}) != Same {
		t.Fatalf("VC2 got %v", v2)
	}
	v3 := c.Receive(Vector{5, 1, 2})
	if v3.Compare(Vector{5, 3, 2}) != Same {
		t.Fatalf("VC3 got %v", v3)
	}
}

func TestNewVectorClockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range index did not panic")
		}
	}()
	NewVectorClock(3, 3)
}
