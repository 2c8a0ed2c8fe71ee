package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// budget bounds one invocation, child runs included; the contract allows
// 180 s.
const budget = 170 * time.Second

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	smoke    bool
}

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout))
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: scale, hall or suite")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "how long the closed loop of timed runs lasts")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	flag.BoolVar(&o.smoke, "smoke", false, "run each workload at a reduced size")
	flag.Parse()
	if err := run(context.Background(), o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench runs one invocation's child processes and tallies their outcomes.
type bench struct {
	ctx       context.Context
	o         options
	exe, tmp  string
	log       io.Writer
	ref       string // reference digest; "" when the reference run failed
	attempted int
	failed    int
}

func run(ctx context.Context, o options, stdout, stderr io.Writer) error {
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("-workload must be one of scale, hall, suite; got %q", o.workload)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	ctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()

	st, err := json.Marshal(map[string]any{"stamp": newStamp(o, w)})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(st))

	b := &bench{ctx: ctx, o: o, exe: exe, tmp: tmp, log: stderr}
	refRun := b.reference()
	timed := b.timedLoop()
	var metrics map[string]valueUnit
	if o.trace == 0 {
		metrics = b.endToEndMetrics(refRun, timed)
	} else {
		metrics = b.traced(timed)
	}
	out, err := json.Marshal(report{
		Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(out))
	return nil
}

// child runs spec in a fresh process. The returned usage is the child's
// whole-process resource usage (CPU time, peak resident memory).
func (b *bench) child(spec childSpec) (*childResult, *syscall.Rusage, error) {
	spec.Workload, spec.Seed, spec.Smoke = b.o.workload, b.o.seed, b.o.smoke
	js, err := json.Marshal(spec)
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.CommandContext(b.ctx, b.exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(js))
	cmd.Stderr = b.log
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("%s run: %w", spec.Role, err)
	}
	var r childResult
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, nil, fmt.Errorf("%s run output: %w", spec.Role, err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return &r, ru, nil
}

// checked runs spec and counts it: a run fails on a crash, an error, a
// failed output check inside the child, or a digest that differs from the
// reference.
func (b *bench) checked(spec childSpec) (*childResult, *syscall.Rusage) {
	b.attempted++
	r, ru, err := b.child(spec)
	if err == nil && r.Digest != b.ref {
		err = fmt.Errorf("%s run digest %.12s differs from reference %.12s", spec.Role, r.Digest, b.ref)
	}
	if err != nil {
		b.failed++
		fmt.Fprintln(b.log, "perfbench:", err)
		return nil, nil
	}
	return r, ru
}

// reference runs the workload's reference configuration, whose digest
// every later run must reproduce.
func (b *bench) reference() *childResult {
	b.attempted++
	r, _, err := b.child(childSpec{Role: roleRef})
	if err != nil {
		b.failed++
		fmt.Fprintln(b.log, "perfbench: reference:", err)
		return nil
	}
	b.ref = r.Digest
	return r
}

// timedRun is one untraced run's measurements, with the whole-process
// figures taken from the child's resource usage.
type timedRun struct {
	m      map[string]float64
	peakMB float64
}

// timedLoop is the closed batch loop: one run at a time, each started when
// the previous one ends, until o.seconds have passed.
func (b *bench) timedLoop() []timedRun {
	var runs []timedRun
	deadline := time.Now().Add(time.Duration(b.o.seconds) * time.Second)
	for first := true; first || time.Now().Before(deadline); first = false {
		if b.ctx.Err() != nil {
			break
		}
		r, ru := b.checked(childSpec{Role: roleTimed})
		if r == nil {
			if b.ref == "" {
				break // nothing to check against; the failures are counted
			}
			continue
		}
		runs = append(runs, timedRun{m: r.Metrics, peakMB: float64(ru.Maxrss) / 1024})
	}
	return runs
}

// medianOf returns the median of f over the timed runs.
func medianOf(runs []timedRun, f func(timedRun) float64) float64 {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = f(r)
	}
	return median(vals)
}

// endToEndMetrics takes each metric's median over the timed runs. The
// suite has no set-up outside its harness runs, so its setup_s is the
// time of its one-worker reference run.
func (b *bench) endToEndMetrics(ref *childResult, runs []timedRun) map[string]valueUnit {
	out := map[string]valueUnit{}
	for _, m := range endToEnd {
		name := m.name
		v := medianOf(runs, func(r timedRun) float64 { return r.m[name] })
		switch {
		case name == "peak_rss_mb":
			v = medianOf(runs, func(r timedRun) float64 { return r.peakMB })
		case name == "events_per_s":
			v = medianOf(runs, func(r timedRun) float64 { return ratio(r.m["events"], r.m["run_s"]) })
		case name == "setup_s" && b.o.workload == "suite" && ref != nil:
			v = ref.Metrics["run_s"]
		}
		out[name] = valueUnit{v, m.unit}
	}
	return out
}

// traced makes the traced run and reports the per-layer metrics. On the
// scale workload it first runs a one-worker baseline for the parallel
// speedup. Tracing overhead is the traced run_s minus the untraced median.
func (b *bench) traced(timed []timedRun) map[string]valueUnit {
	vals := map[string]float64{}
	runS := medianOf(timed, func(r timedRun) float64 { return r.m["run_s"] })
	if b.o.workload == "scale" {
		if one, _ := b.checked(childSpec{Role: roleTimed, Workers: 1}); one != nil {
			vals["sim.parallel_speedup"] = ratio(one.Metrics["run_s"], runS)
		}
	}
	prof := filepath.Join(b.tmp, "cpu.pprof")
	if tr, _ := b.checked(childSpec{Role: roleTraced, Profile: prof}); tr != nil {
		for k, v := range tr.Metrics {
			vals[k] = v
		}
		vals["trace.overhead_s"] = tr.Metrics["run_s"] - runS
		buckets, unattributed, err := foldProfile(b.ctx, prof)
		if err != nil {
			b.failed++
			fmt.Fprintln(b.log, "perfbench: profile:", err)
		}
		for k, v := range buckets {
			vals["cpu."+k+"_s"] = v
		}
		vals["cpu.unattributed_share"] = unattributed
	}
	out := map[string]valueUnit{}
	for _, m := range perLayer {
		out[m.name] = valueUnit{vals[m.name], m.unit}
	}
	return out
}

// stamp identifies the environment and inputs of a result.
type stamp struct {
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Revision   string `json:"revision"`
	Workload   string `json:"workload"`
	Why        string `json:"why"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Params     any    `json:"params"`
}

func newStamp(o options, w workloadDef) stamp {
	return stamp{
		GoVersion: runtime.Version(), CPU: cpuModel(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Revision: revision(),
		Workload: w.name, Why: w.why, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Params: w.params(o.smoke),
	}
}

// revision is the VCS revision the binary was built from, when the build
// saw one.
func revision() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}
