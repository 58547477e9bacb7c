//go:build !race

package vrldram_test

import (
	"testing"
	"time"

	"vrldram/internal/sim"
)

// The gates in this file compare two timings taken in one process, so they
// hold on any host speed; the race detector's overhead would skew them, so
// they build without -race only. Each side is the min of gateRuns runs,
// with the two sides interleaved so host load drifts hit both alike.
const gateRuns = 5

// minRatio times a and b gateRuns times each, interleaved, and returns
// min(b)/min(a) along with both minima.
func minRatio(a, b func()) (ratio float64, minA, minB time.Duration) {
	for i := 0; i < gateRuns; i++ {
		for _, side := range []struct {
			run func()
			min *time.Duration
		}{{a, &minA}, {b, &minB}} {
			start := time.Now()
			side.run()
			if d := time.Since(start); i == 0 || d < *side.min {
				*side.min = d
			}
		}
	}
	return float64(minB) / float64(minA), minA, minB
}

func discard(run func() int64) func() { return func() { run() } }

// TestGateFastForwardSpeedup is the fast-forward engine's floor: on a quiet
// run over four device-year windows (12.288 s), BackendAuto must beat the
// scalar reference by at least 6x. With fast-forward off, the auto
// backend's per-event path over the period lanes is itself about 2x faster
// than the scalar heap loop, so the floor sits between the two; over one
// window, set-up narrows the gap too much to tell them apart.
func TestGateFastForwardSpeedup(t *testing.T) {
	const floor = 6
	auto := deviceYearRun(t, false, 4*deviceYearWindow, sim.BackendAuto)
	scalar := deviceYearRun(t, false, 4*deviceYearWindow, sim.BackendScalar)
	ratio, a, s := minRatio(discard(auto), discard(scalar))
	t.Logf("auto %v, scalar %v: %.2fx", a, s, ratio)
	if ratio < floor {
		t.Errorf("auto is %.2fx faster than scalar, floor %dx", ratio, floor)
	}
}

// TestGateWindowScaling holds the simulator to near-linear cost in the
// simulated span: four times the device-year window may cost at most 8x.
// Linear is 4x (less, as set-up is amortized); an O(n^2) step costs about
// 16x. The quiet run covers the fast-forward kernel (auto) and the heap
// (scalar); the active run covers the per-event path over the period
// lanes, which carries every one of its events, while a quiet run hands
// them to the kernel.
func TestGateWindowScaling(t *testing.T) {
	const ceiling = 8
	for _, tc := range []struct {
		name    string
		active  bool
		backend sim.Backend
	}{
		{"quiet/auto", false, sim.BackendAuto},
		{"quiet/scalar", false, sim.BackendScalar},
		{"active/auto", true, sim.BackendAuto},
	} {
		t.Run(tc.name, func(t *testing.T) {
			short := deviceYearRun(t, tc.active, deviceYearWindow, tc.backend)
			long := deviceYearRun(t, tc.active, 4*deviceYearWindow, tc.backend)
			ratio, s, l := minRatio(discard(short), discard(long))
			t.Logf("%.3f s window %v, %.3f s window %v: %.2fx", deviceYearWindow, s, 4*deviceYearWindow, l, ratio)
			if ratio > ceiling {
				t.Errorf("4x the window costs %.2fx, ceiling %dx", ratio, ceiling)
			}
		})
	}
}

// TestGatePreSenseColumns holds the transient solver to its band structure:
// a PreSenseMeter with 128 columns may cost at most 8x one with 32. The
// banded factorization is linear in the node count (about 4x here); a
// solver that fell back to dense elimination would cost far more.
func TestGatePreSenseColumns(t *testing.T) {
	const ceiling = 8
	narrow, wide := warmPreSenseMeter(t, 32), warmPreSenseMeter(t, 128)
	ratio, n, w := minRatio(func() { measurePreSense(t, narrow) }, func() { measurePreSense(t, wide) })
	t.Logf("32 columns %v, 128 columns %v: %.2fx", n, w, ratio)
	if ratio > ceiling {
		t.Errorf("128 columns cost %.2fx of 32, ceiling %dx", ratio, ceiling)
	}
}

// TestGateColdPreSenseAllocs pins the allocations of one cold
// MeasurePreSense call (netlist construction, solver setup, simulation).
// The race detector's instrumentation adds allocations of its own, so this
// ceiling lives with the non-race gates; like those in TestGateAllocs it is
// exact both ways.
func TestGateColdPreSenseAllocs(t *testing.T) {
	checkCeiling(t, exactAllocs(5, func() { coldPreSense(t) }), 1778)
}
