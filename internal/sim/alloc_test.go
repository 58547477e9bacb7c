package sim

import (
	"context"
	"runtime/debug"
	"testing"

	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/retention"
	"vrldram/internal/scenario"
	"vrldram/internal/trace"
)

// TestGateAllocs holds a warmed simulator run to an exact allocation count.
// Each variant owns its Scratch, so nothing is borrowed from scratchPool,
// which the GC may empty and the race detector drops from at random; the
// count per run is then the same on every host, with or without -race. A
// count above its ceiling is a new allocation on the run's hot path; a
// count below it means the ceiling is stale and must be lowered, so that
// the gate stays exact.
func TestGateAllocs(t *testing.T) {
	const window = 4 * 0.768 // four bin hyperperiods
	for _, tc := range []struct {
		name    string
		ceiling float64
		active  bool
		window  float64
	}{
		// All ten of a quiet window's allocations are the fresh scheduler
		// (its tick column among them) and bank (its int64 last-restore
		// column among them); the run itself reuses the warmed queue and
		// columns.
		{"device-year-quiet", 10, false, window},
		{"device-year-active", 15, true, window},
		{"refresh-only-one-hyperperiod", 10, false, 0.768},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := paperVRLRun(t, tc.active, tc.window)
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			got := testing.AllocsPerRun(5, run)
			if got != tc.ceiling {
				t.Errorf("%v allocs/run, exact ceiling %v", got, tc.ceiling)
			}
		})
	}
}

// paperVRLRun prepares a refresh-only VRL run over window simulated seconds
// on the paper bank through one Scratch warmed by a first run. Each call of
// the returned function builds a fresh scheduler and bank and runs them.
// The active variant adds the dpd-adversary scenario and a 4096-record
// trace spread over the window, which keep fast-forward disengaged so the
// per-event path carries the run.
func paperVRLRun(t *testing.T, active bool, window float64) func() {
	t.Helper()
	p := device.Default90nm()
	prof, err := retention.NewPaperProfile(retention.DefaultCellDistribution(), 42)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := core.PaperRestoreModel(p, device.PaperBank)
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.Record
	if active {
		const nAccesses = 4096
		recs = make([]trace.Record, nAccesses)
		for i := range recs {
			op := trace.Read
			if i%3 == 0 {
				op = trace.Write
			}
			recs[i] = trace.Record{Time: float64(i) * window / nAccesses, Op: op, Row: (i * 37) % device.PaperBank.Rows}
		}
	}
	var sc Scratch
	run := func() {
		sched, err := core.NewVRL(prof, core.Config{Restore: rm})
		if err != nil {
			t.Fatal(err)
		}
		bank, err := dram.NewBank(prof, retention.ExpDecay{}, retention.PatternAllZeros)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Duration: window, TCK: p.TCK}
		var src trace.Source
		if active {
			env, err := scenario.BuildEnv(scenario.Ref{Name: "dpd-adversary"}, window, 42)
			if err != nil {
				t.Fatal(err)
			}
			if err := bank.SetModulator(env); err != nil {
				t.Fatal(err)
			}
			opts.Scenario = env
			src = trace.NewSliceSource(recs)
		}
		if _, err := runContext(context.Background(), bank, sched, src, opts, &sc); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the queue's lazily-grown buffers
	return run
}
