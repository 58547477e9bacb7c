package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets a test re-run this binary as vrltrace itself: with
// VRLTRACE_TEST_MAIN set, the process runs main on the remaining arguments.
func TestMain(m *testing.M) {
	if os.Getenv("VRLTRACE_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runTrace generates a small dedup trace with extra arguments and returns
// vrltrace's exit code, failing the test if it is still running after 30 s.
func runTrace(t *testing.T, extra ...string) int {
	t.Helper()
	args := append([]string{"-bench", "dedup", "-rows", "256"}, extra...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "VRLTRACE_TEST_MAIN=1")
	done := make(chan error, 1)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return exit.ExitCode()
		}
		if err != nil {
			t.Fatal(err)
		}
		return 0
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		<-done
		t.Fatalf("vrltrace %s still running after 30 s", strings.Join(extra, " "))
	}
	return 0
}

// TestNonFiniteDurationExitsNonZero: a NaN duration passes a sign check and
// an infinite one counts no whole window, so vrltrace used to write an empty
// trace for either and exit 0. It must refuse both with a non-zero exit.
func TestNonFiniteDurationExitsNonZero(t *testing.T) {
	for _, d := range []string{"NaN", "Inf", "-Inf"} {
		t.Run(d, func(t *testing.T) {
			if code := runTrace(t, "-duration", d); code == 0 {
				t.Fatalf("vrltrace -duration %s exited 0, want a non-zero exit", d)
			}
		})
	}
}

// TestFiniteDurationRuns: the same trace with a finite duration still exits
// 0, so the refusals above are the duration's doing.
func TestFiniteDurationRuns(t *testing.T) {
	if code := runTrace(t, "-duration", "0.1", "-o", t.TempDir()+"/dedup.trc"); code != 0 {
		t.Fatalf("vrltrace -duration 0.1 exited %d, want 0", code)
	}
}
