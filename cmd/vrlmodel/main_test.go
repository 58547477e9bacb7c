package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as vrlmodel itself: with
// VRLMODEL_TEST_MAIN set, the process runs main on the remaining arguments.
func TestMain(m *testing.M) {
	if os.Getenv("VRLMODEL_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runVrlmodel(args ...string) (string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "VRLMODEL_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestTargetOutOfRangeExitsNonZero: a target outside (0, 1) has no
// crossing time; vrlmodel used to print an infinite latency and a wrapped
// cycle count and exit 0. It must refuse the target up front, before the
// analytic model or a transient run sees it.
func TestTargetOutOfRangeExitsNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"-target", "1.5"},
		{"-target", "1"},
		{"-target", "0"},
		{"-target", "-0.5"},
		{"-target", "NaN"},
		{"-target", "Inf"},
		{"-spice", "-target", "1.5"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			out, err := runVrlmodel(args...)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() == 0 {
				t.Fatalf("vrlmodel %v: %v, want a non-zero exit\n%s", args, err, out)
			}
			if !strings.Contains(out, "-target") {
				t.Fatalf("vrlmodel %v: error does not name -target:\n%s", args, out)
			}
		})
	}
}

func TestTargetInRangeRuns(t *testing.T) {
	out, err := runVrlmodel("-target", "0.9")
	if err != nil {
		t.Fatalf("vrlmodel -target 0.9: %v\n%s", err, out)
	}
	if !strings.Contains(out, "to 90% signal") {
		t.Fatalf("vrlmodel -target 0.9 output lacks the pre-sensing line:\n%s", out)
	}
}
