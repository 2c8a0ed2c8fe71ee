// Command bench records the repository's benchmark suites, each into
// BENCH_<suite>.json in the working directory:
//
//	go run ./cmd/bench [kernel|lattice|faults|shard|checker|workload ...]
//
// No argument runs every suite; an unknown suite name exits 2. `make
// bench-<suite>` runs one suite. Every record starts with the same
// environment stamp (Go version, CPU model, NumCPU and GOMAXPROCS), and
// parallel measurements use GOMAXPROCS workers, so a record taken on a
// multi-core machine measures its cores.
//
//   - kernel: DES-kernel fast path (schedule/step micro-benchmark,
//     experiment-suite wall clock sequential and across the worker
//     pool).
//   - lattice: single-pass Survey vs the retained recursive enumerator.
//   - faults: fault-injection overhead with no plan, an empty plan and
//     an active plan.
//   - shard: sharded sparse engine vs the legacy dense/race-aware
//     configuration, shard-count digest identity, max-p row (~20 s).
//   - checker: hierarchical checker tree vs the flat checker (~5 s).
//   - workload: generator throughput, trace-codec bandwidth and
//     density, record→replay overhead.
//
// Every suite keeps its own differential checks (round trips, digest
// identity, oracle comparisons), so a record doubles as a correctness
// run.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"pervasive/internal/experiments"
)

// suite is one recorder: run measures and returns the report to write
// (with st embedded) plus a one-line summary for stdout.
type suite struct {
	name, description string
	run               func(st stamp) (report any, summary string)
}

var suites = []suite{
	{"kernel", kernelDescription, runKernel},
	{"lattice", latticeDescription, runLattice},
	{"faults", faultsDescription, runFaults},
	{"shard", shardDescription, runShard},
	{"checker", checkerDescription, runChecker},
	{"workload", workloadDescription, runWorkload},
}

// stamp is the environment header every record starts with.
type stamp struct {
	Description string `json:"description"`
	Command     string `json:"command"`
	Date        string `json:"date"`
	Go          string `json:"go"`
	CPU         string `json:"cpu"`
	CPUs        int    `json:"cpus"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
}

func newStamp(s suite) stamp {
	return stamp{
		Description: s.description,
		Command:     "make bench-" + s.name,
		Date:        time.Now().Format("2006-01-02"),
		Go:          runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		CPU:         cpuModel(),
		CPUs:        runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

// suiteMs times the E1–E16+ablation experiment suite at the given
// parallelism and returns the median wall clock of reps passes.
func suiteMs(quick bool, par, reps int) int64 {
	cfg := experiments.RunConfig{Seed: 1, Quick: quick, Parallelism: par}
	times := make([]int64, reps)
	for i := range times {
		start := time.Now()
		for _, e := range experiments.AllWithAblations() {
			e.Run(cfg)
		}
		times[i] = time.Since(start).Milliseconds()
	}
	sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
	return times[reps/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func progress(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }

func main() {
	byName := map[string]suite{}
	var names []string
	for _, s := range suites {
		byName[s.name] = s
		names = append(names, s.name)
	}
	selected := suites
	if args := os.Args[1:]; len(args) > 0 {
		selected = nil
		for _, name := range args {
			s, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "bench: unknown suite %q (suites: %s)\n", name, strings.Join(names, " "))
				os.Exit(2)
			}
			selected = append(selected, s)
		}
	}
	for _, s := range selected {
		report, summary := s.run(newStamp(s))
		path := "BENCH_" + s.name + ".json"
		data, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%s)\n", path, summary)
	}
}
