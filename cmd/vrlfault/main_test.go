package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets a test re-run this binary as vrlfault itself: with
// VRLFAULT_TEST_MAIN set, the process runs main on the remaining arguments.
func TestMain(m *testing.M) {
	if os.Getenv("VRLFAULT_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runFault runs vrlfault over a short window plus extra and returns its
// exit code, failing the test if it is still running after 30 s.
func runFault(t *testing.T, extra ...string) int {
	t.Helper()
	args := append([]string{"-duration", "0.05"}, extra...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "VRLFAULT_TEST_MAIN=1")
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
		t.Fatalf("vrlfault %s still running after 30 s", strings.Join(extra, " "))
	}
	return 0
}

// TestNonFiniteParametersExitNonZero: a NaN temperature makes every true
// retention NaN, whose charge never compares below the sense limit, so the
// campaign used to report zero violations; an infinite one reported
// thousands from a meaningless population; and a NaN rate passed every
// range check. vrlfault must refuse each with a non-zero exit.
func TestNonFiniteParametersExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"-injector", "temp", "-dtemp", "NaN"},
		{"-injector", "temp", "-dtemp", "Inf"},
		{"-injector", "temp", "-dtemp", "-Inf"},
		{"-injector", "profile", "-rate", "NaN"},
		{"-injector", "refresh", "-rate", "NaN"},
		{"-injector", "bank", "-rate", "NaN"},
	} {
		t.Run(strings.Join(args, "_"), func(t *testing.T) {
			if code := runFault(t, args...); code == 0 {
				t.Fatalf("vrlfault %s exited 0, want a non-zero exit", strings.Join(args, " "))
			}
		})
	}
}

// TestFiniteParametersRun: the same campaigns with finite values still run
// to a zero exit, so the refusals above are the parameters' doing.
func TestFiniteParametersRun(t *testing.T) {
	for _, args := range [][]string{
		{"-injector", "temp", "-dtemp", "5"},
		{"-injector", "profile", "-rate", "0.05"},
	} {
		if code := runFault(t, args...); code != 0 {
			t.Fatalf("vrlfault %s exited %d, want 0", strings.Join(args, " "), code)
		}
	}
}
