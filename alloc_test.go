package vrldram_test

import (
	"runtime/debug"
	"testing"

	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/ecc"
	"vrldram/internal/fault"
	"vrldram/internal/retention"
	"vrldram/internal/scenario"
	"vrldram/internal/scrub"
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
// variant here owns its scratch - a warmed PreSenseMeter, restore model or
// bank - so nothing is borrowed from a sync.Pool that the GC may empty
// between runs, and the count per run is the same on every host, with or
// without -race. The simulator's own run gates, which need a Scratch of
// their own, live in internal/sim's TestGateAllocs. A count above its ceiling is a new allocation on a hot
// path; a count below it means the ceiling is stale and must be lowered, so
// that the gate stays exact.
func TestGateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ceiling float64
		setup   func(tb testing.TB) func()
	}{
		{"presense-meter-warm", 0, func(tb testing.TB) func() {
			m := warmPreSenseMeter(tb, 32)
			return func() { measurePreSense(tb, m) }
		}},
		{"compute-mprsf", 0, mprsfStep},
		// A scenario decay walk reads its Env's compiled grid and keeps its
		// cursor, bound telegraph rows and walk on the stack.
		{"scenario-decay-factor", 0, scenarioDecayStep},
		// A patrol read the decay bound decides returns its decode outcome
		// by value, as does the exact sense it replaces.
		{"bounded-patrol-read", 0, patrolReadStep},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkCeiling(t, exactAllocs(5, tc.setup(t)), tc.ceiling)
		})
	}
}

// scenarioDecayStep returns one round of DecayFactor queries on a
// fleet-shaped scenario Env (kitchen-sink over a 0.128 s window plus a
// weak-cell telegraph). The Env's grid is compiled before it returns.
func scenarioDecayStep(tb testing.TB) func() {
	const window = 0.128
	env, err := scenario.BuildEnv(scenario.Ref{Name: "kitchen-sink"}, window, 42)
	if err != nil {
		tb.Fatal(err)
	}
	env.Stressors = append(env.Stressors, scenario.VRTStressor{Label: "weak-cells", V: *fault.DefaultTransientWeakCells(43)})
	const n = 64
	rows := make([]int, n)
	tret, t0, t1, out := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range rows {
		rows[i], tret[i] = i*17%1024, 0.02+0.5*float64(i)/n
		t0[i] = window / 2 * float64(i%8) / 8
		t1[i] = t0[i] + window/4*(1+float64(i%5)/5)
	}
	base := retention.ExpDecay{}
	step := func() {
		for i := range rows {
			out[i] = env.DecayFactor(rows[i], tret[i], t0[i], t1[i], base)
		}
	}
	step()
	return step
}

// patrolReadStep returns one patrol sweep over a fleet-shaped scenario bank
// (kitchen-sink over a 0.128 s window plus a weak-cell telegraph) whose
// rows the decay bound clears; each sweep reads 1 ms after the last.
func patrolReadStep(tb testing.TB) func() {
	const window, rows = 0.128, 256
	env, err := scenario.BuildEnv(scenario.Ref{Name: "kitchen-sink"}, window, 42)
	if err != nil {
		tb.Fatal(err)
	}
	env.Stressors = append(env.Stressors, scenario.VRTStressor{Label: "weak-cells", V: *fault.DefaultTransientWeakCells(43)})
	p := &retention.BankProfile{
		Geom:     device.BankGeometry{Rows: rows, Cols: 4},
		True:     make([]float64, rows),
		Profiled: make([]float64, rows),
	}
	for r := range p.True {
		p.True[r], p.Profiled[r] = 0.5, retention.ProfileRetention(0.5)
	}
	bank, err := dram.NewBank(p, retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		tb.Fatal(err)
	}
	if err := bank.SetModulator(env); err != nil {
		tb.Fatal(err)
	}
	store, err := scrub.NewBankStore(bank, ecc.DefaultClassifier())
	if err != nil {
		tb.Fatal(err)
	}
	now := 0.0
	return func() {
		now += 0.001
		for r := 0; r < rows; r++ {
			if outcome, err := store.PatrolRead(r, now); err != nil || outcome != ecc.OK {
				tb.Fatalf("row %d: outcome %v, err %v", r, outcome, err)
			}
		}
	}
}
