package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as the pervasim command, so
// exit codes and stderr are observed exactly as a user sees them.
func TestMain(m *testing.M) {
	if os.Getenv("PERVASIM_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runPervasim runs the command with args and returns its exit code and
// stderr.
func runPervasim(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PERVASIM_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("running pervasim %v: %v", args, err)
	return 0, ""
}

// TestFaultPlanOutsideFleetIsUsageError: a crash aimed at a process the
// fleet does not have is a usage error (exit 2 with a message) on both
// harness paths, never a panic.
func TestFaultPlanOutsideFleetIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-faults", "crash(99,1s)", "-horizon", "2s"},
		{"-scenario", "scale", "-sensors", "64", "-faults", "crash(99,1s)", "-horizon", "2s"},
	} {
		code, stderr := runPervasim(t, args...)
		if code != 2 {
			t.Errorf("pervasim %v: exit %d, want 2\n%s", args, code, stderr)
		}
		if !strings.Contains(stderr, "pervasim: -faults: faults: plan event targets process 99") {
			t.Errorf("pervasim %v: stderr lacks the usage error:\n%s", args, stderr)
		}
		if strings.Contains(stderr, "panic") || strings.Contains(stderr, "goroutine") {
			t.Errorf("pervasim %v: panicked:\n%s", args, stderr)
		}
	}
}
