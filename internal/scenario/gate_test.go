//go:build !race

package scenario

import (
	"math/rand"
	"testing"
	"time"

	"vrldram/internal/retention"
)

// The gate in this file compares two timings taken in one process, so it
// holds on any host speed; the race detector's overhead would skew it, so it
// builds without -race only.

// gateRuns is how many timings each side of a gate takes; each side is the
// min of its runs, with the two sides interleaved so host load drifts hit
// both alike.
const gateRuns = 5

// fleetDecayCases is a fleet device's decay queries on kitchen-sink at the
// fleet window: spans of a quarter to a half of the window, as a refresh
// sense, a patrol read or the end-of-run check asks, from scattered restore
// times.
func fleetDecayCases(tb testing.TB, n int) (*Env, []decayCase) {
	env, err := BuildEnv(Ref{Name: "kitchen-sink"}, fleetWindow, testSeed)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	cs := make([]decayCase, n)
	for i := range cs {
		t0 := fleetWindow / 2 * rng.Float64()
		cs[i] = decayCase{row: rng.Intn(1024), tret: 0.02 + rng.Float64()*0.5, t0: t0, t1: t0 + fleetWindow/4*(1+rng.Float64())}
	}
	return env, cs
}

// TestGateCompiledWalkSpeedup is the compiled walk's floor: over fleet-shaped
// spans on kitchen-sink, DecayFactor must beat the reference walk,
// decayFactorRef, by at least 9x. On a two-vCPU Xeon the per-stressor plans
// the grid replaced ran at 5.2-7.7x on these queries, the grid at 11-18x; a
// grid whose cells are trusted at their start only (no edge guard) runs at
// about 6x.
func TestGateCompiledWalkSpeedup(t *testing.T) {
	const floor = 9
	env, cs := fleetDecayCases(t, 16384)
	base := retention.ExpDecay{}
	sink := 0.0
	compiled := func() {
		for _, c := range cs {
			sink += env.DecayFactor(c.row, c.tret, c.t0, c.t1, base)
		}
	}
	ref := func() {
		for _, c := range cs {
			sink += env.decayFactorRef(c.row, c.tret, c.t0, c.t1, base)
		}
	}
	compiled()
	var minC, minR time.Duration
	for i := 0; i < gateRuns; i++ {
		for _, side := range []struct {
			run func()
			min *time.Duration
		}{{compiled, &minC}, {ref, &minR}} {
			start := time.Now()
			side.run()
			if d := time.Since(start); i == 0 || d < *side.min {
				*side.min = d
			}
		}
	}
	ratio := float64(minR) / float64(minC)
	t.Logf("compiled %v, reference %v: %.2fx (sink %g)", minC, minR, ratio, sink)
	if ratio < floor {
		t.Errorf("compiled walk is %.2fx faster than the reference, floor %dx", ratio, floor)
	}
}

// BenchmarkEnvDecayFactorFleet times the scalar path on the gate's
// fleet-shaped queries.
func BenchmarkEnvDecayFactorFleet(b *testing.B) {
	env, cs := fleetDecayCases(b, 256)
	base := retention.ExpDecay{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cs[i%len(cs)]
		env.DecayFactor(c.row, c.tret, c.t0, c.t1, base)
	}
}
