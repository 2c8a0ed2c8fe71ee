package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"pervasive/internal/obs"
)

// childEnv carries a childSpec to a re-executed copy of the benchmark.
// Every measured run is a fresh process, so its heap, GC state and peak
// resident memory are its own.
const childEnv = "PERFBENCH_CHILD"

// Roles of a child run.
const (
	roleRef    = "ref"    // the reference configuration the timed runs must match
	roleTimed  = "timed"  // untraced; feeds the end-to-end metrics
	roleTraced = "traced" // obs registry, CPU profile and runtime/metrics per phase
)

// childSpec is one run the orchestrator asks a child process to make.
type childSpec struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Smoke    bool   `json:"smoke"`
	Role     string `json:"role"`
	// Workers overrides the scale workload's worker count when positive.
	Workers int `json:"workers,omitempty"`
	// Profile is where the traced role writes its CPU profile.
	Profile string `json:"profile,omitempty"`
}

// childResult is what a child reports: the digest of its checked output
// and its measurements by metric name.
type childResult struct {
	Digest  string             `json:"digest"`
	Metrics map[string]float64 `json:"metrics"`
}

func (r *childResult) set(name string, v float64) { r.Metrics[name] = v }

// childMain runs the spec in this process and prints one JSON result line.
func childMain(specJSON string, stdout io.Writer) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child: bad spec:", err)
		return 2
	}
	r, err := runChild(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child (%s %s seed %d): %v\n", spec.Workload, spec.Role, spec.Seed, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

func runChild(spec childSpec) (*childResult, error) {
	w, ok := workloadByName(spec.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	var reg *obs.Registry
	if spec.Role == roleTraced {
		reg = obs.NewRegistry()
		f, err := os.Create(spec.Profile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
	}

	begin := readPhase()
	inst, err := w.setup(spec, reg)
	if err != nil {
		return nil, err
	}
	ready := readPhase()
	inst.run()
	done := readPhase()
	if reg != nil {
		pprof.StopCPUProfile()
	}

	r := &childResult{Metrics: map[string]float64{}}
	setup, run := ready.wall.Sub(begin.wall).Seconds(), done.wall.Sub(ready.wall).Seconds()
	r.set("setup_s", setup)
	r.set("run_s", run)
	r.set("cpu_s", (done.cpu - begin.cpu).Seconds())
	r.set("alloc_mb", float64(done.uint(mAllocs)-begin.uint(mAllocs))/(1<<20))
	r.set("gc_cycles", float64(done.uint(mGCCycles)-begin.uint(mGCCycles)))
	if err := inst.check(r); err != nil {
		return nil, err
	}
	if reg != nil {
		if err := crossCheckObs(reg, r); err != nil {
			return nil, err
		}
		runCPU := (done.cpu - ready.cpu).Seconds()
		procs := float64(runtime.GOMAXPROCS(0))
		r.set("gc.cpu_s", done.float(mGCCPU)-ready.float(mGCCPU))
		r.set("sched.wait_p99_ms", 1000*histQuantile(ready.hist(mSchedLat), done.hist(mSchedLat), 0.99))
		r.set("sim.idle_core_s", procs*run-runCPU)
		r.set("runner.core_util", runCPU/(procs*run))
		if gen, ok := r.Metrics["workload.gen_s"]; ok {
			r.set("scenario.build_s", setup-gen)
		}
	}
	return r, nil
}

// crossCheckObs compares the obs registry's transport counter with the
// transport's own total, so the traced run's instrumentation is checked
// against the untraced path it rides on.
func crossCheckObs(reg *obs.Registry, r *childResult) error {
	sent, ok := r.Metrics["net.sent"]
	if !ok {
		return nil
	}
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "net.sent" {
			if float64(c.Value) != sent {
				return fmt.Errorf("obs net.sent %d != transport sent %.0f", c.Value, sent)
			}
			return nil
		}
	}
	return fmt.Errorf("obs snapshot has no net.sent counter")
}

// runtime/metrics read at each phase boundary.
const (
	mAllocs   = "/gc/heap/allocs:bytes"
	mGCCycles = "/gc/cycles/total:gc-cycles"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mSchedLat = "/sched/latencies:seconds"
)

var phaseMetrics = []string{mAllocs, mGCCycles, mGCCPU, mSchedLat}

// phase is the process state at one phase boundary.
type phase struct {
	wall    time.Time
	cpu     time.Duration // process user + system time
	samples []metrics.Sample
}

func readPhase() phase {
	p := phase{samples: make([]metrics.Sample, len(phaseMetrics))}
	for i, name := range phaseMetrics {
		p.samples[i].Name = name
	}
	metrics.Read(p.samples)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	p.wall = time.Now()
	return p
}

func (p phase) value(name string) metrics.Value {
	for _, s := range p.samples {
		if s.Name == name {
			return s.Value
		}
	}
	panic("perfbench: metric not read: " + name)
}

func (p phase) uint(name string) uint64                    { return p.value(name).Uint64() }
func (p phase) float(name string) float64                  { return p.value(name).Float64() }
func (p phase) hist(name string) *metrics.Float64Histogram { return p.value(name).Float64Histogram() }

// histQuantile returns the q-quantile of the observations added to a
// cumulative runtime histogram between two reads, as the upper edge of the
// bucket the quantile falls in.
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen >= rank {
			if hi := after.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return after.Buckets[i]
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}

// quantile returns the nearest-rank q-quantile of vals (0 when empty).
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median returns the middle of vals, averaging the two middle values of an
// even count (0 when empty).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(vals []float64) float64 {
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
