package vrldram_test

import (
	"runtime/debug"
	"testing"

	"vrldram/internal/sim"
)

// exactAllocs is testing.AllocsPerRun with the garbage collector paused. A
// collection empties every sync.Pool (fmt's printers among them), and the
// refills would add a few allocations to whichever run the collection
// happened to land in; with the collector off the count is a property of
// the code alone.
func exactAllocs(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

func discard(run func() int64) func() { return func() { run() } }

// checkCeiling fails unless got equals the exact ceiling.
func checkCeiling(t *testing.T, got, ceiling float64) {
	t.Helper()
	switch {
	case got > ceiling:
		t.Errorf("%v allocs/run, ceiling %v: a hot path allocates again", got, ceiling)
	case got < ceiling:
		t.Errorf("%v allocs/run, ceiling %v: lower the ceiling to keep the gate exact", got, ceiling)
	}
}

// TestGateAllocs holds the hot paths to exact allocation counts. Every
// variant here owns its scratch - a warmed sim.Reusable, PreSenseMeter or
// bank - so nothing is borrowed from a sync.Pool that the GC may empty
// between runs, and the count per run is the same on every host, with or
// without -race. A count above its ceiling is a new allocation on a hot
// path; a count below it means the ceiling is stale and must be lowered, so
// that the gate stays exact.
func TestGateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ceiling float64
		setup   func(tb testing.TB) func()
	}{
		// Eight of a quiet window's nine allocations are the fresh scheduler
		// and bank; the run makes one and reuses the warmed queue and columns.
		{"device-year-quiet", 9, func(tb testing.TB) func() {
			return discard(deviceYearRun(tb, false, deviceYearWindow, sim.BackendAuto))
		}},
		{"device-year-active", 28, func(tb testing.TB) func() {
			return discard(deviceYearRun(tb, true, deviceYearWindow, sim.BackendAuto))
		}},
		{"sim-refresh-only-reusable", 9, func(tb testing.TB) func() {
			return discard(deviceYearRun(tb, false, 0.768, sim.BackendAuto))
		}},
		{"presense-meter-warm", 0, func(tb testing.TB) func() {
			m := warmPreSenseMeter(tb, 32)
			return func() { measurePreSense(tb, m) }
		}},
		{"bank-refresh-batch-warm", 0, func(tb testing.TB) func() {
			step, _ := bankBatchRefresh(tb)
			i := 0
			return func() { step(i); i++ }
		}},
		{"compute-mprsf", 0, mprsfStep},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkCeiling(t, exactAllocs(5, tc.setup(t)), tc.ceiling)
		})
	}
}
