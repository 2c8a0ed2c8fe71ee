package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"testing"
)

// TestMain lets a test re-run this binary as the experiments command, so
// exit codes and output are observed exactly as a user sees them.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runExperiments runs the command with args and returns its exit code,
// stdout and stderr.
func runExperiments(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatalf("running experiments %v: %v", args, err)
	return 0, "", ""
}

// TestFaultPlanOutsideFleetIsUsageError: a crash aimed at a sensor the
// smallest fleet of a selected experiment lacks is a usage error (exit 2
// with a one-line message) reported before any table runs, never a
// harness panic. E2 ignores -faults, so it does not trip the check, but
// it must not run either.
func TestFaultPlanOutsideFleetIsUsageError(t *testing.T) {
	code, stdout, stderr := runExperiments(t, "-run", "E2,E1", "-quick", "-faults", "crash(99,1s)")
	if code != 2 {
		t.Errorf("exit %d, want 2\n%s", code, stderr)
	}
	want := "experiments: -faults: E1 (6 sensors): faults: plan event targets process 99; " +
		"crash/recover is limited to sensors 0..5\n"
	if stderr != want {
		t.Errorf("stderr = %q, want %q", stderr, want)
	}
	if stdout != "" {
		t.Errorf("tables ran before the plan was checked:\n%s", stdout)
	}
}
