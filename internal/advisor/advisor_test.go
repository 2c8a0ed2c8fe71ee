package advisor

import (
	"strings"
	"testing"

	"pervasive/internal/core"
	"pervasive/internal/sim"
)

func TestUrbanWithSyncPrefersPhysical(t *testing.T) {
	// Smart office with an affordable sync service and µs-scale ε.
	a := Advise(Deployment{
		N: 8, MeanEventGap: sim.Second, Delta: 50 * sim.Millisecond,
		SyncAvailable: true, SyncAffordable: true,
		SyncEpsilon: 100 * sim.Microsecond, MinOverlap: 50 * sim.Millisecond,
	})
	if a.Options[0].Kind != core.PhysicalReport {
		t.Fatalf("best = %v; synchronized clocks should win when available and affordable", a.Options[0].Kind)
	}
}

func TestWildTerrainPrefersVectorStrobes(t *testing.T) {
	// Habitat monitoring: no sync service, events minutes apart, Δ seconds.
	a := Advise(Deployment{
		N: 5, MeanEventGap: 2 * sim.Minute, Delta: 2 * sim.Second,
		SyncAvailable: false, NeedRaceFlagging: true,
	})
	if a.Options[0].Kind != core.VectorStrobe {
		t.Fatalf("best = %v; the wild is the strobe clocks' regime (§6)", a.Options[0].Kind)
	}
	if a.Options[0].Score < 0.9 {
		t.Fatalf("score %.2f too low for the favourable regime", a.Options[0].Score)
	}
	// Physical must be eliminated outright.
	for _, o := range a.Options {
		if o.Kind == core.PhysicalReport && o.Score != 0 {
			t.Fatalf("physical clocks scored %.2f with no service available", o.Score)
		}
	}
}

func TestTightByteBudgetFavoursScalars(t *testing.T) {
	a := Advise(Deployment{
		N: 64, MeanEventGap: sim.Minute, Delta: 100 * sim.Millisecond,
		SyncAvailable: false, BytesBudget: 64,
	})
	if a.Options[0].Kind != core.ScalarStrobe {
		t.Fatalf("best = %v; 64-node vectors blow a 64B budget", a.Options[0].Kind)
	}
}

func TestRaceFlaggingDemotesScalars(t *testing.T) {
	a := Advise(Deployment{
		N: 4, MeanEventGap: sim.Second, Delta: 100 * sim.Millisecond,
		SyncAvailable: false, NeedRaceFlagging: true,
	})
	var scalarScore, vectorScore float64
	for _, o := range a.Options {
		switch o.Kind {
		case core.ScalarStrobe:
			scalarScore = o.Score
		case core.VectorStrobe:
			vectorScore = o.Score
		}
	}
	if scalarScore >= vectorScore {
		t.Fatalf("scalar %.2f not demoted below vector %.2f despite race-flagging need",
			scalarScore, vectorScore)
	}
}

func TestShortOverlapsDemotePhysical(t *testing.T) {
	base := Deployment{
		N: 4, MeanEventGap: sim.Second, Delta: 10 * sim.Millisecond,
		SyncAvailable: true, SyncAffordable: true,
		SyncEpsilon: 5 * sim.Millisecond,
	}
	fine := base
	fine.MinOverlap = 100 * sim.Millisecond
	coarse := Advise(fine)
	racy := base
	racy.MinOverlap = 2 * sim.Millisecond // below 2ε = 10ms
	tight := Advise(racy)
	scoreOf := func(a Advice, k core.ClockKind) float64 {
		for _, o := range a.Options {
			if o.Kind == k {
				return o.Score
			}
		}
		return -1
	}
	if scoreOf(tight, core.PhysicalReport) >= scoreOf(coarse, core.PhysicalReport) {
		t.Fatal("sub-2ε overlaps should demote physical clocks (Mayo–Kearns)")
	}
	// And the rationale must cite the 2ε limit.
	found := false
	for _, o := range tight.Options {
		if o.Kind == core.PhysicalReport {
			for _, r := range o.Rationale {
				if strings.Contains(r, "2ε") {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("2ε rationale missing")
	}
}

func TestCrossDomainPenalty(t *testing.T) {
	base := Deployment{
		N: 4, MeanEventGap: sim.Minute, Delta: 100 * sim.Millisecond,
		SyncAvailable: true, SyncAffordable: true, SyncEpsilon: sim.Millisecond,
	}
	private := base
	private.CrossDomain = true
	a := Advise(private)
	if a.Options[0].Kind == core.PhysicalReport {
		t.Fatalf("cross-domain privacy (§3.3 limitation 5) should dethrone physical sync here")
	}
}

func TestDefaultsAndSummary(t *testing.T) {
	a := Advise(Deployment{})
	if len(a.Options) != 3 {
		t.Fatalf("options %d", len(a.Options))
	}
	if a.Summary == "" {
		t.Fatal("no summary")
	}
	for i := 1; i < len(a.Options); i++ {
		if a.Options[i].Score > a.Options[i-1].Score {
			t.Fatal("options not ranked")
		}
	}
	for _, o := range a.Options {
		if o.ErrorMode == "" {
			t.Fatalf("%v has no error mode", o.Kind)
		}
	}
}
