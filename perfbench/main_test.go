package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout))
	}
	os.Exit(m.Run())
}

// lastReport runs the benchmark and decodes its last output line.
func lastReport(t *testing.T, o options) report {
	t.Helper()
	var out, log bytes.Buffer
	if err := run(context.Background(), o, &out, &log); err != nil {
		t.Fatalf("run: %v\n%s", err, log.String())
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("correct=%v failed=%d of %d\n%s", rep.Correct, rep.Failed, rep.Attempted, log.String())
	}
	return rep
}

// TestSmoke runs every workload at a reduced size, untraced and traced, and
// checks that every named metric is emitted with its unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for trace, want := range [][]metric{endToEnd, perLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.name, trace), func(t *testing.T) {
				rep := lastReport(t, options{workload: w.name, seed: 7, seconds: 1, trace: trace, smoke: true})
				if rep.Attempted < 2 {
					t.Errorf("attempted %d runs; want the reference and at least one more", rep.Attempted)
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, want %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s = %+v, want unit %s", m.name, got, m.unit)
					}
					if trace == 0 && got.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", m.name)
					}
				}
			})
		}
	}
}

// TestDigestMismatchFails checks that a run whose output differs from the
// reference counts as failed.
func TestDigestMismatchFails(t *testing.T) {
	b := &bench{ctx: context.Background(), o: options{workload: "hall", seed: 7, smoke: true},
		log: &bytes.Buffer{}, ref: "not a digest"}
	b.exe, _ = os.Executable()
	if r, _ := b.checked(childSpec{Role: roleTimed}); r != nil || b.failed != 1 || b.attempted != 1 {
		t.Fatalf("checked = %v, failed %d of %d; want a failed run", r, b.failed, b.attempted)
	}
}

func TestRejectsBadOptions(t *testing.T) {
	for _, o := range []options{
		{workload: "nope", seconds: 1},
		{workload: "hall", seconds: 0},
		{workload: "hall", seconds: 1, trace: 2},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), o, &out, &out); err == nil || out.Len() != 0 {
			t.Errorf("run(%+v) = %v, output %q; want an error and no output", o, err, out.String())
		}
	}
}

// TestMetricsMatchManifest keeps BENCHMARK.json and this package in step.
func TestMetricsMatchManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
		Why    string   `json:"why"`
	}
	var man struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Errorf("manifest has %d workloads, package %d", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("workload %d: manifest %q %q, package %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, set := range []struct {
		man []entry
		pkg []metric
	}{{man.EndToEnd, endToEnd}, {man.PerLayer, perLayer}} {
		if len(set.man) != len(set.pkg) {
			t.Errorf("manifest lists %d metrics, package %d", len(set.man), len(set.pkg))
			continue
		}
		for i, e := range set.man {
			m := set.pkg[i]
			bound := 0.0
			if e.Bound != nil {
				bound = *e.Bound
			}
			if e.Name != m.name || e.Unit != m.unit || e.Better != m.better || bound != m.bound {
				t.Errorf("metric %d: manifest %+v (bound %v), package %+v", i, e, bound, m)
			}
		}
	}
}

func TestFoldTraces(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.memmove
             pervasive/internal/world.(*World).set
             pervasive/internal/core.(*Sensor).onSense
-----------+-------------------------------------------------------
      20ms   runtime.mallocgc
             pervasive/internal/clock.(*SparseStrobeVector).OnStrobe (inline)
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
-----------+-------------------------------------------------------
     1.5s   pervasive/internal/sim.(*Engine).Step
-----------+-------------------------------------------------------
      50ms   pervasive/internal/runner.Map[go.shape.struct { Occurrences []pervasive/internal/core.Occurrence }].func1
-----------+-------------------------------------------------------
      40ms   runtime.futex
             runtime.notesleep
`)
	got, unattributed, err := foldTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"world": 0.03, "malloc": 0.02, "gc": 0.01, "sim": 1.5, "runner": 0.05}
	for b, v := range got {
		if d := v - want[b]; d > 1e-9 || d < -1e-9 {
			t.Errorf("bucket %s = %v, want %v", b, v, want[b])
		}
	}
	if d := unattributed - 0.04/1.65; d > 1e-9 || d < -1e-9 {
		t.Errorf("unattributed share = %v, want %v", unattributed, 0.04/1.65)
	}
}
