package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets a test re-run this binary as vrlfleet itself: with
// VRLFLEET_TEST_MAIN set, the process runs main on the remaining arguments.
func TestMain(m *testing.M) {
	if os.Getenv("VRLFLEET_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runFleet runs vrlfleet on a tiny campaign plus extra and returns its exit
// code, failing the test if it is still running after 30 s.
func runFleet(t *testing.T, extra ...string) int {
	t.Helper()
	args := append([]string{"-devices", "2", "-shard-size", "1", "-duration", "0.01", "-rows", "64", "-cols", "4", "-local", "1", "-quiet"}, extra...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "VRLFLEET_TEST_MAIN=1")
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
		t.Fatalf("vrlfleet %s still running after 30 s", strings.Join(extra, " "))
	}
	return 0
}

// TestNonFiniteParametersExitNonZero: NaN passes every sign check and an
// infinite temperature scales every retention to nothing, so a campaign
// given one used to spin forever (a NaN scrub sweep), report violations
// from a meaningless population (an infinite temperature), or run
// silently on garbage. vrlfleet must refuse each promptly with a non-zero
// exit.
func TestNonFiniteParametersExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"-scrub", "-scrub-sweep", "NaN"},
		{"-scrub", "-scrub-sweep", "Inf"},
		{"-temp-swing", "Inf"},
		{"-temp-swing", "NaN"},
		{"-temp-mean", "Inf"},
		{"-temp-mean", "NaN"},
		{"-weak-frac", "NaN"},
	} {
		t.Run(strings.Join(args, "_"), func(t *testing.T) {
			if code := runFleet(t, args...); code == 0 {
				t.Fatalf("vrlfleet %s exited 0, want a non-zero exit", strings.Join(args, " "))
			}
		})
	}
}

// TestFiniteParametersRun: the same campaign with finite values still runs
// to a zero exit, so the refusals above are the parameters' doing.
func TestFiniteParametersRun(t *testing.T) {
	if code := runFleet(t, "-scrub", "-scrub-sweep", "0.032", "-temp-swing", "4", "-temp-mean", "80", "-weak-frac", "0.5"); code != 0 {
		t.Fatalf("vrlfleet with finite parameters exited %d, want 0", code)
	}
}
