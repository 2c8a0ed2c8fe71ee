// Command experiments regenerates the reproduction tables E1–E13 (see
// DESIGN.md for the mapping from paper claims to experiments and
// EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	experiments [-run E1,E5] [-quick] [-seed N] [-p workers] [-list]
//	experiments -run E1 -faults 'crash(1,20s);recover(1,40s)'
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pervasive/internal/experiments"
	"pervasive/internal/faults"
	"pervasive/internal/runner"
)

func main() {
	runIDs := flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
	quick := flag.Bool("quick", false, "shrink sweeps and seed counts for a fast pass")
	seed := flag.Uint64("seed", 1, "base random seed")
	list := flag.Bool("list", false, "list experiments and exit")
	ablations := flag.Bool("ablations", false,
		"include the A1–A6 design-choice ablations when running 'all'")
	par := flag.Int("p", 1, "worker pool size for replications; 0 means all cores; "+
		"output is byte-identical at every setting")
	faultsSpec := flag.String("faults", "", "fault plan installed into every pulse workload, "+
		"e.g. 'crash(1,20s);recover(1,40s)' (experiments that sweep faults themselves ignore it)")
	timing := flag.Bool("timing", false, "fill measured wall-clock columns (E14); "+
		"off by default so tables stay byte-identical run to run")
	flag.Parse()

	if *list {
		for _, e := range experiments.AllWithAblations() {
			fmt.Printf("%-4s %s\n", e.ID, e.Name)
		}
		return
	}

	var selected []experiments.Experiment
	if strings.EqualFold(*runIDs, "all") {
		selected = experiments.All
		if *ablations {
			selected = experiments.AllWithAblations()
		}
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	if *par == 0 {
		*par = runner.AllCores()
	}
	var plan *faults.Plan
	if *faultsSpec != "" {
		var err error
		if plan, err = faults.Parse(*faultsSpec); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -faults: %v\n", err)
			os.Exit(2)
		}
	}
	cfg := experiments.RunConfig{Seed: *seed, Quick: *quick, Parallelism: *par, Faults: plan, Timing: *timing}
	for _, e := range selected {
		if err := e.CheckFaults(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -faults: %v\n", err)
			os.Exit(2)
		}
	}
	for _, e := range selected {
		e.Run(cfg).Render(os.Stdout)
	}
}
