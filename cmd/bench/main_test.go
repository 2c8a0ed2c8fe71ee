package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as the bench command.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRecordsMatchSchema: every suite has a committed record at the repo
// root, the record decodes into the suite's report type with no unknown
// key, and every key the report type writes is in the record — so a
// recorder and its record cannot drift apart.
func TestRecordsMatchSchema(t *testing.T) {
	reports := map[string]any{
		"kernel":   &kernelReport{},
		"lattice":  &latticeReport{},
		"faults":   &faultsReport{},
		"shard":    &shardReport{},
		"checker":  &checkerReport{},
		"workload": &workloadReport{},
	}
	if len(reports) != len(suites) {
		t.Errorf("%d report types for %d suites", len(reports), len(suites))
	}
	for _, s := range suites {
		report, ok := reports[s.name]
		if !ok {
			t.Errorf("suite %s has no report type in this test", s.name)
			continue
		}
		data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+s.name+".json"))
		if err != nil {
			t.Errorf("suite %s: %v", s.name, err)
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(report); err != nil {
			t.Errorf("BENCH_%s.json: %v", s.name, err)
			continue
		}
		var recorded, written map[string]json.RawMessage
		if err := json.Unmarshal(data, &recorded); err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(report)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(out, &written); err != nil {
			t.Fatal(err)
		}
		for key := range written {
			if _, ok := recorded[key]; !ok {
				t.Errorf("BENCH_%s.json lacks key %q that the %s suite writes", s.name, key, s.name)
			}
		}
	}
}

func TestUnknownSuiteExitsTwo(t *testing.T) {
	cmd := exec.Command(os.Args[0], "kernel", "nosuch")
	cmd.Env = append(os.Environ(), "BENCH_TEST_MAIN=1")
	cmd.Dir = t.TempDir() // a bug that ran "kernel" first would write here
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("bench kernel nosuch: %v, want exit 2\n%s", err, stderr.String())
	}
	if want := `unknown suite "nosuch" (suites: kernel lattice faults shard checker workload)`; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
	}
}
