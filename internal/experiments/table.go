// Package experiments regenerates every quantitative claim of the paper
// as a numbered experiment (E1–E15; see DESIGN.md for the claim-to-
// experiment mapping). Each experiment is a pure function from a run
// configuration to a printable table; cmd/experiments and the root
// benchmark suite share these implementations.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"pervasive/internal/faults"
)

// Table is one experiment's result, rendered as an aligned text table.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper sentence being reproduced
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of cells, formatting each with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table in aligned text form.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(w, "claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, cell)
		}
		fmt.Fprintln(w, " ", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// RunConfig controls an experiment run. Quick shrinks sweeps and seed
// counts so benchmarks and tests stay fast; full runs are the defaults
// used by cmd/experiments.
type RunConfig struct {
	Seed  uint64
	Quick bool
	// Parallelism fans the independent (seed, sweep-point) replications
	// of each experiment across a bounded worker pool: values above 1 are
	// worker counts, 0 and 1 run replications inline. Results are
	// collected by replication index and aggregated in that order, so the
	// rendered table is byte-identical at every setting — parallelism is
	// purely a wall-clock knob. Randomness shared across replications
	// (E2's clock fleets, A4's workload draws) is pre-drawn sequentially
	// before the fan-out, preserving exact sequential output.
	Parallelism int
	// Faults, when non-nil, installs this fault plan into every
	// pulse-workload harness that does not define its own (the CLI's
	// -faults flag). Experiments that sweep fault plans themselves (E13)
	// ignore it.
	Faults *faults.Plan
	// Timing fills measured wall-clock columns in the tables that have
	// them (E14). Off by default: those cells render "-" so tables stay
	// byte-identical run to run and across worker counts, which is what
	// the determinism regression compares.
	Timing bool
}

// pick returns quick when cfg.Quick, else full.
func (c RunConfig) pick(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Experiment couples an ID with its runner.
type Experiment struct {
	ID   string
	Name string
	Run  func(cfg RunConfig) *Table
	// FaultFleet returns the smallest sensor fleet Run hands cfg.Faults
	// to; nil for experiments that ignore cfg.Faults.
	FaultFleet func(cfg RunConfig) int
}

// fleet is a FaultFleet for experiments whose smallest fleet is fixed.
func fleet(n int) func(RunConfig) int { return func(RunConfig) int { return n } }

// CheckFaults validates cfg.Faults against the smallest fleet e installs
// it into, so a plan naming a missing sensor is reported before any run
// rather than as a harness panic mid-table.
func (e Experiment) CheckFaults(cfg RunConfig) error {
	if cfg.Faults == nil || e.FaultFleet == nil {
		return nil
	}
	n := e.FaultFleet(cfg)
	if err := cfg.Faults.Validate(n); err != nil {
		return fmt.Errorf("%s (%d sensors): %w", e.ID, n, err)
	}
	return nil
}

// All lists the experiments in order.
var All = []Experiment{
	{"E1", "strobe detection accuracy vs Δ", E1StrobeAccuracy, fleet(6)},
	{"E2", "physical-clock false negatives below the skew bound", E2TwoEpsilon, nil},
	{"E3", "slim lattice postulate", E3SlimLattice, fleet(4)},
	{"E4", "scalar ≡ vector strobes at Δ=0", E4ScalarVectorEquivalence, fleet(4)},
	{"E5", "exhibition hall borderline bin", E5ExhibitionHall, nil},
	{"E6", "Definitely(φ) under growing delay", E6DefinitelyUnderDelay, nil},
	{"E7", "strobe message overhead O(1) vs O(n)", E7MessageOverhead, fleet(4)},
	{"E8", "loss localization", E8LossLocalization, fleet(3)},
	{"E9", "clock synchronization cost and accuracy", E9ClockSyncCost, nil},
	{"E10", "every-occurrence vs detect-once", E10EveryOccurrence, nil},
	{"E11", "hidden channels defeat causality tracking", E11HiddenChannels, nil},
	{"E12", "strobes as causal clocks inject false causality", E12FalseCausality, fleet(3)},
	{"E13", "crash/recovery churn sweep", E13CrashChurn, nil},
	{"E14", "sharded-engine scale sweep", E14ScaleSweep, fleet(64)},
	{"E15", "checker-tree fan-out sweep", E15CheckerTree, func(cfg RunConfig) int { return cfg.pick(1024, 256) }},
	{"E16", "statistical generator sweep (burstiness, diurnal phase)", E16GeneratorSweep, fleet(6)},
}

// ByID finds an experiment or ablation by its ID (case-insensitive).
func ByID(id string) (Experiment, bool) {
	for _, e := range All {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	for _, e := range Ablations {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}
