package experiments

import (
	"strconv"
	"strings"
	"testing"

	"pervasive/internal/faults"
	"pervasive/internal/sim"
)

func quick() RunConfig { return RunConfig{Seed: 1, Quick: true} }

func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl := e.Run(quick())
			if tbl.ID != e.ID {
				t.Fatalf("table ID %q want %q", tbl.ID, e.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Fatalf("row width %d != header width %d: %v",
						len(row), len(tbl.Header), row)
				}
			}
			if !strings.Contains(tbl.String(), tbl.ID) {
				t.Fatal("render misses ID")
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("e3"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("bogus ID found")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "T", Title: "title", Claim: "claim",
		Header: []string{"a", "bb"}, Notes: []string{"note1"}}
	tbl.AddRow(1, 2.5)
	out := tbl.String()
	for _, want := range []string{"T", "title", "claim", "a", "bb", "1", "2.500", "note1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render %q missing %q", out, want)
		}
	}
}

// cell fetches a numeric cell.
func cell(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(tbl.Rows[row][col], "µs"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, tbl.Rows[row][col], err)
	}
	return v
}

func findRow(tbl *Table, col int, value string) int {
	for i, row := range tbl.Rows {
		if row[col] == value {
			return i
		}
	}
	return -1
}

func TestE2Shape(t *testing.T) {
	tbl := E2TwoEpsilon(quick())
	// FN-rate at overlap/ε' = 0.25 must exceed the rate at 3.0 (which
	// must be ~0).
	lowIdx := findRow(tbl, 0, "0.25")
	highIdx := findRow(tbl, 0, "3.00")
	if lowIdx < 0 || highIdx < 0 {
		t.Fatalf("rows missing: %v", tbl.Rows)
	}
	low := cell(t, tbl, lowIdx, 3)
	high := cell(t, tbl, highIdx, 3)
	if low <= high {
		t.Fatalf("FN-rate did not fall with overlap: %.3f vs %.3f", low, high)
	}
	if high > 0.01 {
		t.Fatalf("FN-rate above the bound should be ~0, got %.3f", high)
	}
	if low < 0.2 {
		t.Fatalf("FN-rate far below the bound should be substantial, got %.3f", low)
	}
}

func TestE3Shape(t *testing.T) {
	tbl := E3SlimLattice(quick())
	// Two blocks of 6 regime rows, separated by one marker row.
	if len(tbl.Rows) != 13 {
		t.Fatalf("rows %d want 13 (6 + marker + 6)", len(tbl.Rows))
	}
	block := func(base int, chain, full float64) {
		t.Helper()
		first := cell(t, tbl, base, 2) // Δ=0
		last := cell(t, tbl, base+5, 2)
		if first != chain {
			t.Fatalf("row %d: Δ=0 lattice size %.1f want %.0f (n·p+1)", base, first, chain)
		}
		if last != full {
			t.Fatalf("row %d: no-strobe lattice size %.1f want %.0f ((p+1)^n)", base+5, last, full)
		}
		prev := first
		for i := base + 1; i <= base+5; i++ {
			cur := cell(t, tbl, i, 2)
			if cur < prev-1e-9 {
				t.Fatalf("lattice size not monotone in Δ: row %d %.1f < %.1f", i, cur, prev)
			}
			prev = cur
		}
		if w := cell(t, tbl, base, 4); w != 1 {
			t.Fatalf("row %d: Δ=0 width %.1f want 1", base, w)
		}
	}
	block(0, 17, 625)    // n=4, p=4
	block(7, 37, 117649) // n=6, p=6 (rows 0-5, marker at 6, block at 7-12)
}

func TestE4Shape(t *testing.T) {
	tbl := E4ScalarVectorEquivalence(quick())
	// Row 0: Δ=0 — all confusions identical, no unflagged errors anywhere.
	seeds := cell(t, tbl, 0, 2)
	if cell(t, tbl, 0, 3) != seeds {
		t.Fatalf("Δ=0 scalar/vector differ: %v", tbl.Rows[0])
	}
	if cell(t, tbl, 0, 4) != 0 || cell(t, tbl, 0, 5) != 0 {
		t.Fatalf("Δ=0 unflagged errors nonzero: %v", tbl.Rows[0])
	}
	// Row 1: Δ>0 — the scalar leaves at least as many errors unflagged
	// as the vector.
	if cell(t, tbl, 1, 5) < cell(t, tbl, 1, 4) {
		t.Fatalf("scalar certified better than vector: %v", tbl.Rows[1])
	}
	// Row 2: Lamport orders a positive number of concurrent pairs.
	if cell(t, tbl, 2, 4) == 0 {
		t.Fatalf("Lamport ordered no concurrent pairs: %v", tbl.Rows[2])
	}
}

func TestE7Shape(t *testing.T) {
	tbl := E7MessageOverhead(quick())
	// bytes/event at n=16 vs n=4 for vector should scale much faster than
	// for scalar.
	get := func(n int, kind string) float64 {
		for i, row := range tbl.Rows {
			if row[0] == strconv.Itoa(n) && row[1] == kind {
				return cell(t, tbl, i, 5)
			}
		}
		t.Fatalf("row n=%d kind=%s missing", n, kind)
		return 0
	}
	vecGrowth := get(16, "strobe-vector") / get(4, "strobe-vector")
	scaGrowth := get(16, "strobe-scalar") / get(4, "strobe-scalar")
	physGrowth := get(16, "physical-report") / get(4, "physical-report")
	if vecGrowth <= scaGrowth {
		t.Fatalf("vector growth %.2f not above scalar growth %.2f", vecGrowth, scaGrowth)
	}
	if physGrowth > 1.5 {
		t.Fatalf("physical reports should stay O(1) per event, grew %.2f×", physGrowth)
	}
}

func TestE9Shape(t *testing.T) {
	tbl := E9ClockSyncCost(RunConfig{Seed: 2, Quick: true})
	// Rows: unsynced, RBS, TPSN, on-demand (n=16 only in quick mode).
	parse := func(s string) float64 {
		s = strings.TrimSpace(s)
		switch {
		case strings.HasSuffix(s, "ms"):
			v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
			return v * 1000
		case strings.HasSuffix(s, "µs"):
			v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "µs"), 64)
			return v
		case strings.HasSuffix(s, "s"):
			v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "s"), 64)
			return v * 1e6
		}
		v, _ := strconv.ParseFloat(s, 64)
		return v
	}
	unsynced := parse(tbl.Rows[0][2])
	rbs := parse(tbl.Rows[1][2])
	tpsn := parse(tbl.Rows[2][2])
	if !(rbs < tpsn && tpsn < unsynced) {
		t.Fatalf("ε ordering violated: rbs=%v tpsn=%v unsynced=%v", rbs, tpsn, unsynced)
	}
	if tbl.Rows[1][5] == "0" || tbl.Rows[2][5] == "0" {
		t.Fatal("sync protocols reported zero message cost — the service must not be free")
	}
}

func TestE10Shape(t *testing.T) {
	tbl := E10EveryOccurrence(quick())
	every := cell(t, tbl, 0, 3)
	once := cell(t, tbl, 1, 3)
	if every <= once {
		t.Fatalf("every-occurrence fraction %.2f not above detect-once %.2f", every, once)
	}
	seeds := quick().pick(5, 2)
	if int(cell(t, tbl, 1, 2)) != seeds {
		t.Fatalf("detect-once should find exactly one per run: %v", tbl.Rows[1])
	}
}

func TestE11Shape(t *testing.T) {
	tbl := E11HiddenChannels(quick())
	first := cell(t, tbl, 0, 4)              // covert delay ≪ Δ
	last := cell(t, tbl, len(tbl.Rows)-1, 4) // covert delay ≫ Δ
	if first >= last {
		t.Fatalf("recovered fraction did not rise with covert delay: %.3f vs %.3f", first, last)
	}
	if first > 0.2 {
		t.Fatalf("fast covert channels should be nearly invisible, recovered %.3f", first)
	}
	for i := range tbl.Rows {
		if tbl.Rows[i][5] != "0" {
			t.Fatalf("inverted causality should be impossible: %v", tbl.Rows[i])
		}
	}
}

func TestE12Shape(t *testing.T) {
	tbl := E12FalseCausality(quick())
	// Δ=0 row: ~all cross pairs falsely ordered, lattice is a chain.
	if frac := cell(t, tbl, 0, 3); frac < 0.95 {
		t.Fatalf("Δ=0 false-causality fraction %.3f, want ~1", frac)
	}
	if frac := cell(t, tbl, len(tbl.Rows)-1, 3); frac >= cell(t, tbl, 0, 3) {
		t.Fatalf("false causality did not thin with Δ: %v", tbl.Rows)
	}
	if cell(t, tbl, 0, 4) >= cell(t, tbl, 0, 5) {
		t.Fatalf("strobe lattice not smaller than true lattice at Δ=0: %v", tbl.Rows[0])
	}
}

// TestFaultFleetIsSmallestFleet: every experiment's FaultFleet is exactly
// the smallest fleet it installs -faults into. A plan crashing the last
// sensor of that fleet passes CheckFaults and runs; one sensor further is
// rejected by CheckFaults and, unchecked, makes the harness panic.
// Experiments without a FaultFleet ignore the plan, so any plan runs.
func TestFaultFleetIsSmallestFleet(t *testing.T) {
	crash := func(proc int) RunConfig {
		cfg := quick()
		cfg.Faults = faults.NewPlan().Crash(proc, 100*sim.Millisecond)
		return cfg
	}
	for _, e := range AllWithAblations() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if e.FaultFleet == nil {
				e.Run(crash(1 << 20))
				return
			}
			n := e.FaultFleet(quick())
			if err := e.CheckFaults(crash(n - 1)); err != nil {
				t.Fatal(err)
			}
			e.Run(crash(n - 1))
			if e.CheckFaults(crash(n)) == nil {
				t.Fatalf("crash(%d) passed CheckFaults for a %d-sensor fleet", n, n)
			}
			defer func() {
				if recover() == nil {
					t.Errorf("crash(%d) ran without a harness panic: the smallest fleet is larger than %d", n, n)
				}
			}()
			e.Run(crash(n))
		})
	}
}
