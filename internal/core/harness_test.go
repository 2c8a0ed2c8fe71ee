package core

import (
	"testing"

	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/world"
)

// pulseHarness wires n sensors each watching its own pulsing object, with
// the conjunction-of-pulses predicate.
func pulseHarness(seed uint64, n int, kind ClockKind, delay sim.DelayModel,
	pulseMeanGap, pulseWidth sim.Duration, horizon sim.Time) *Harness {

	pred := ConjunctiveGlobal(predicate.MustParse("p@0 == 1"), n)
	h := NewHarness(HarnessConfig{
		Seed: seed, N: n, Kind: kind, Delay: delay,
		Pred: pred, Modality: predicate.Instantaneously,
		Horizon: horizon,
	})
	for i := 0; i < n; i++ {
		obj := h.World.AddObject("obj", nil)
		h.Bind(i, obj, "p", "p")
		world.Toggler{Obj: obj, Attr: "p", MeanHigh: pulseWidth,
			MeanLow: pulseMeanGap}.Install(h.World, horizon)
	}
	return h
}

func TestVectorStrobeEndToEndHighAccuracy(t *testing.T) {
	// The paper's favourable regime: event rate low relative to Δ.
	// Pulses last seconds; Δ = 20 ms.
	h := pulseHarness(1, 3, VectorStrobe, sim.NewDeltaBounded(20*sim.Millisecond),
		2*sim.Second, 3*sim.Second, 60*sim.Second)
	res := h.Run()
	if len(res.Truth) < 3 {
		t.Fatalf("workload too thin: %d true intervals", len(res.Truth))
	}
	if r := res.Confusion.Recall(); r < 0.9 {
		t.Fatalf("recall %.3f: %+v", r, res.Confusion)
	}
	if res.Confusion.FP > 0 && res.Confusion.BorderlineFP < res.Confusion.FP {
		t.Fatalf("vector checker produced unflagged FPs: %+v", res.Confusion)
	}
}

func TestVectorDegradesGracefullyWithDelta(t *testing.T) {
	// As Δ approaches the event scale, accuracy decreases (more FN).
	fast := pulseHarness(2, 3, VectorStrobe, sim.NewDeltaBounded(5*sim.Millisecond),
		300*sim.Millisecond, 200*sim.Millisecond, 120*sim.Second).Run()
	slow := pulseHarness(2, 3, VectorStrobe, sim.NewDeltaBounded(2*sim.Second),
		300*sim.Millisecond, 200*sim.Millisecond, 120*sim.Second).Run()
	if fast.Confusion.Recall() < slow.Confusion.Recall() {
		t.Fatalf("recall did not degrade with Δ: fast=%.3f slow=%.3f",
			fast.Confusion.Recall(), slow.Confusion.Recall())
	}
	if slow.Confusion.FN == 0 {
		t.Fatal("huge Δ produced no false negatives at all — suspicious")
	}
}

func TestScalarProducesUnflaggedErrors(t *testing.T) {
	// With racing pulses and nontrivial Δ, the scalar checker reports
	// definite occurrences it cannot vouch for; the vector checker flags
	// its race-affected ones. Aggregate across seeds for stability.
	var scalarUnflaggedFP, vectorUnflaggedFP int64
	for seed := uint64(0); seed < 8; seed++ {
		vec := pulseHarness(seed, 4, VectorStrobe, sim.NewDeltaBounded(150*sim.Millisecond),
			400*sim.Millisecond, 120*sim.Millisecond, 60*sim.Second).Run()
		sca := pulseHarness(seed, 4, ScalarStrobe, sim.NewDeltaBounded(150*sim.Millisecond),
			400*sim.Millisecond, 120*sim.Millisecond, 60*sim.Second).Run()
		vectorUnflaggedFP += vec.Confusion.FP - vec.Confusion.BorderlineFP
		scalarUnflaggedFP += sca.Confusion.FP - sca.Confusion.BorderlineFP
	}
	if scalarUnflaggedFP <= vectorUnflaggedFP {
		t.Fatalf("scalar unflagged FP (%d) not worse than vector (%d)",
			scalarUnflaggedFP, vectorUnflaggedFP)
	}
}

func TestHarnessDeterminism(t *testing.T) {
	run := func() Results {
		return pulseHarness(9, 3, VectorStrobe, sim.NewDeltaBounded(50*sim.Millisecond),
			500*sim.Millisecond, 300*sim.Millisecond, 30*sim.Second).Run()
	}
	a, b := run(), run()
	if a.Confusion != b.Confusion || len(a.Occurrences) != len(b.Occurrences) {
		t.Fatalf("non-deterministic: %+v vs %+v", a.Confusion, b.Confusion)
	}
}

func TestHarnessMessageCosts(t *testing.T) {
	vec := pulseHarness(4, 6, VectorStrobe, sim.Synchronous{},
		300*sim.Millisecond, 200*sim.Millisecond, 20*sim.Second).Run()
	sca := pulseHarness(4, 6, ScalarStrobe, sim.Synchronous{},
		300*sim.Millisecond, 200*sim.Millisecond, 20*sim.Second).Run()
	if vec.Net.Sent != sca.Net.Sent {
		t.Fatalf("same workload, different message counts: %d vs %d",
			vec.Net.Sent, sca.Net.Sent)
	}
	if vec.Net.Bytes <= sca.Net.Bytes {
		t.Fatalf("vector strobes (O(n)) not costlier than scalar (O(1)): %d vs %d",
			vec.Net.Bytes, sca.Net.Bytes)
	}
}

func TestScalarEqualsVectorAtDeltaZero(t *testing.T) {
	// §4.2.3 item 5: with Δ=0 and a strobe per event, scalars do not lose
	// accuracy relative to vectors.
	for seed := uint64(0); seed < 5; seed++ {
		vec := pulseHarness(seed, 4, VectorStrobe, sim.Synchronous{},
			300*sim.Millisecond, 150*sim.Millisecond, 30*sim.Second).Run()
		sca := pulseHarness(seed, 4, ScalarStrobe, sim.Synchronous{},
			300*sim.Millisecond, 150*sim.Millisecond, 30*sim.Second).Run()
		if vec.Confusion.TP != sca.Confusion.TP ||
			vec.Confusion.FP != sca.Confusion.FP ||
			vec.Confusion.FN != sca.Confusion.FN {
			t.Fatalf("seed %d: Δ=0 scalar ≠ vector: %+v vs %+v",
				seed, sca.Confusion, vec.Confusion)
		}
	}
}

func TestLossLocalization(t *testing.T) {
	// Drop every strobe in a window; detection outside the window must be
	// unaffected (no long-term ripple, §4.2.2).
	mkDelay := func(withLoss bool) sim.DelayModel {
		inner := sim.NewDeltaBounded(10 * sim.Millisecond)
		if !withLoss {
			return inner
		}
		return sim.LossWindow{Inner: inner,
			From: 20 * sim.Second, To: 25 * sim.Second}
	}
	clean := pulseHarness(7, 3, VectorStrobe, mkDelay(false),
		800*sim.Millisecond, 600*sim.Millisecond, 60*sim.Second).Run()
	lossy := pulseHarness(7, 3, VectorStrobe, mkDelay(true),
		800*sim.Millisecond, 600*sim.Millisecond, 60*sim.Second).Run()

	// Compare detection before the window and well after it.
	countIn := func(res Results, lo, hi sim.Time) int {
		n := 0
		for _, o := range res.Occurrences {
			if o.Start >= lo && o.Start < hi {
				n++
			}
		}
		return n
	}
	if countIn(clean, 0, 19*sim.Second) != countIn(lossy, 0, 19*sim.Second) {
		t.Fatal("loss window affected detection before it")
	}
	// After the window plus one value-refresh cycle, the checker resyncs
	// on the next strobes.
	after := 30 * sim.Second
	c1, c2 := countIn(clean, after, 60*sim.Second), countIn(lossy, after, 60*sim.Second)
	diff := c1 - c2
	if diff < 0 {
		diff = -diff
	}
	if diff > 1 {
		t.Fatalf("loss rippled: clean=%d lossy=%d occurrences after window", c1, c2)
	}
}

func TestConjunctiveDefinitelyEndToEnd(t *testing.T) {
	local := predicate.MustParse("p@0 == 1")
	n := 3
	h := NewHarness(HarnessConfig{
		Seed: 11, N: n, Kind: VectorStrobe,
		Delay:     sim.NewDeltaBounded(20 * sim.Millisecond),
		Pred:      ConjunctiveGlobal(local, n),
		LocalConj: local,
		Modality:  predicate.Definitely,
		Horizon:   60 * sim.Second,
	})
	for i := 0; i < n; i++ {
		obj := h.World.AddObject("obj", nil)
		h.Bind(i, obj, "p", "p")
		world.Toggler{Obj: obj, Attr: "p", MeanHigh: 3 * sim.Second,
			MeanLow: 1 * sim.Second}.Install(h.World, h.Cfg.Horizon)
	}
	res := h.Run()
	if len(res.Truth) < 3 {
		t.Fatalf("thin workload: %d true intervals", len(res.Truth))
	}
	if r := res.Confusion.Recall(); r < 0.7 {
		t.Fatalf("Definitely recall %.3f: %+v", r, res.Confusion)
	}
}

func TestHarnessLatticeExecution(t *testing.T) {
	h := pulseHarness(5, 3, VectorStrobe, sim.NewDeltaBounded(10*sim.Millisecond),
		400*sim.Millisecond, 300*sim.Millisecond, 5*sim.Second)
	h.Cfg.LogStamps = true
	for _, s := range h.Sensors {
		s.LogStamps = true
	}
	h.Run()
	ex := h.LatticeExecution()
	if ex.Events() == 0 {
		t.Fatal("no stamps logged")
	}
	if !ex.PathConsistentAlong(ex.Path()) {
		t.Fatal("actual path inconsistent under strobe stamps")
	}
}

func TestHarnessPanicsWithoutPred(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHarness(HarnessConfig{N: 2, Modality: predicate.Instantaneously})
}

func TestHarnessPanicsConjunctiveScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHarness(HarnessConfig{
		N: 2, Kind: ScalarStrobe, Modality: predicate.Definitely,
		Pred: predicate.MustParse("p@0 == 1 && p@1 == 1"),
	})
}
