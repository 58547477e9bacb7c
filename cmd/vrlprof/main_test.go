package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets a test re-run this binary as vrlprof itself: with
// VRLPROF_TEST_MAIN set, the process runs main on the remaining arguments.
func TestMain(m *testing.M) {
	if os.Getenv("VRLPROF_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runProf profiles a 64-row chip plus extra and returns vrlprof's exit
// code and stderr, failing the test if it is still running after 30 s.
func runProf(t *testing.T, extra ...string) (int, string) {
	t.Helper()
	args := append([]string{"-rows", "64"}, extra...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "VRLPROF_TEST_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	done := make(chan error, 1)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return exit.ExitCode(), stderr.String()
		}
		if err != nil {
			t.Fatal(err)
		}
		return 0, stderr.String()
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		<-done
		t.Fatalf("vrlprof %s still running after 30 s", strings.Join(extra, " "))
	}
	return 0, ""
}

// TestNonFiniteMarginExitsNonZero: a NaN margin passed the range check,
// so vrlprof profiled anyway and then blamed the profile ("UNSOUND") for a
// bad flag. It must refuse the flag itself, before profiling.
func TestNonFiniteMarginExitsNonZero(t *testing.T) {
	for _, m := range []string{"NaN", "Inf", "-Inf"} {
		t.Run(m, func(t *testing.T) {
			code, stderr := runProf(t, "-margin", m)
			if code == 0 {
				t.Fatalf("vrlprof -margin %s exited 0, want a non-zero exit", m)
			}
			if !strings.Contains(stderr, "margin") || strings.Contains(stderr, "UNSOUND") {
				t.Fatalf("vrlprof -margin %s must blame the margin, got: %s", m, stderr)
			}
		})
	}
}

// TestFiniteMarginRuns: a finite margin still profiles to a zero exit.
func TestFiniteMarginRuns(t *testing.T) {
	if code, stderr := runProf(t, "-margin", "0.9"); code != 0 {
		t.Fatalf("vrlprof -margin 0.9 exited %d, want 0: %s", code, stderr)
	}
}
