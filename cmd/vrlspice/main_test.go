package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as vrlspice itself: with
// VRLSPICE_TEST_MAIN set, the process runs main on the remaining arguments.
func TestMain(m *testing.M) {
	if os.Getenv("VRLSPICE_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runVrlspice(args ...string) (string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "VRLSPICE_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestDegenerateGridExitsNonZero: a step count past the int range used to
// wrap negative, so vrlspice printed only the t=0 sample and exited 0; NaN
// passed the sign checks. Every such grid must fail the run.
func TestDegenerateGridExitsNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"-tstop", "2n", "-step", "1e-30"},
		{"-tstop", "2n", "-step", "NaN"},
		{"-tstop", "NaN"},
		{"-tstop", "Inf"},
		{"-tstop", "2n", "-step", "Inf"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			out, err := runVrlspice(args...)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() == 0 {
				t.Fatalf("vrlspice %v: %v, want a non-zero exit\n%s", args, err, out)
			}
			if strings.Contains(out, "t_s,") {
				t.Fatalf("vrlspice %v printed waveforms before failing:\n%s", args, out)
			}
		})
	}
}

func TestDefaultGridRuns(t *testing.T) {
	out, err := runVrlspice("-tstop", "2n")
	if err != nil {
		t.Fatalf("vrlspice -tstop 2n: %v\n%s", err, out)
	}
	// Header, the t=0 sample and 2000 steps.
	if lines := strings.Count(out, "\n"); lines != 2002 {
		t.Fatalf("vrlspice -tstop 2n printed %d lines, want 2002", lines)
	}
}
