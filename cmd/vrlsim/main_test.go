package main

import (
	"errors"
	"os"
	"os/exec"
	"testing"
	"time"
)

// TestMain lets a test re-run this binary as vrlsim itself: with
// VRLSIM_TEST_MAIN set, the process runs main on the remaining arguments.
func TestMain(m *testing.M) {
	if os.Getenv("VRLSIM_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestNonFiniteDurationExitsNonZero: NaN and ±Inf pass every sign check,
// so a run given one used to loop forever (NaN) or exhaust memory (Inf).
// vrlsim must refuse both promptly with a non-zero exit.
func TestNonFiniteDurationExitsNonZero(t *testing.T) {
	for _, d := range []string{"NaN", "Inf", "-Inf", "1e300"} {
		t.Run(d, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-duration", d, "-rows", "64", "-cols", "4")
			cmd.Env = append(os.Environ(), "VRLSIM_TEST_MAIN=1")
			done := make(chan error, 1)
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			go func() { done <- cmd.Wait() }()
			select {
			case err := <-done:
				var exit *exec.ExitError
				if !errors.As(err, &exit) || exit.ExitCode() == 0 {
					t.Fatalf("vrlsim -duration %s: %v, want a non-zero exit", d, err)
				}
			case <-time.After(30 * time.Second):
				_ = cmd.Process.Kill()
				t.Fatalf("vrlsim -duration %s still running after 30 s", d)
			}
		})
	}
}
