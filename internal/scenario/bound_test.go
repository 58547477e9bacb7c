package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/fault"
	"vrldram/internal/retention"
)

// TestCatalogEnvsReportScaleFloor requires every catalog scenario's Env, and
// the fleet's weak-cell compositions, to report a positive floor no larger
// than the scale it applies on sampled rows and times, the run window's
// outside included. A stressor that loses its floor fails here instead of
// only sending every sense back to the exact walk.
func TestCatalogEnvsReportScaleFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for name, env := range exactnessEnvs(t) {
		t.Run(name, func(t *testing.T) {
			floor := env.MinScale()
			if !(floor > 0) {
				t.Fatalf("MinScale %v, want > 0", floor)
			}
			for i := 0; i < 4000; i++ {
				row, tret := rng.Intn(1<<14), 0.02+rng.Float64()
				at := env.Duration * (3*rng.Float64() - 1)
				if s := env.ScaleAt(row, tret, at); s < floor {
					t.Fatalf("ScaleAt(row %d, tret %g, t %g) = %v below MinScale %v", row, tret, at, s, floor)
				}
			}
		})
	}
}

// TestEnvFloorNeedsEveryStressor: one stressor without a floor, or with a
// non-positive one, leaves the Env without a floor.
func TestEnvFloorNeedsEveryStressor(t *testing.T) {
	env := buildNamed(t, "kitchen-sink")
	env.Stressors = append(env.Stressors, plainStressor{})
	if f := env.MinScale(); f != 0 {
		t.Fatalf("an Env holding a stressor without a floor reports MinScale %v", f)
	}
	env = buildNamed(t, "diurnal")
	env.Stressors = append(env.Stressors, Gate{Label: "g", Period: 1, ActiveProb: 1, Inner: plainStressor{}})
	if f := env.MinScale(); f != 0 {
		t.Fatalf("an Env gating a stressor without a floor reports MinScale %v", f)
	}
	env = buildNamed(t, "diurnal")
	env.Stressors = append(env.Stressors, AgingRamp{Label: "a", Model: retention.AgingModel{RatePerYear: 1.5}, Years: 2, Window: 1, Steps: 2})
	if f := env.MinScale(); f != 0 {
		t.Fatalf("an Env with an aging rate past 1 reports MinScale %v", f)
	}
}

// plainStressor is a constant stressor with no ScaleFloor capability.
type plainStressor struct{}

func (plainStressor) Name() string                                { return "plain" }
func (plainStressor) ScaleAt(row int, tret, t float64) float64    { return 0.5 }
func (plainStressor) NextChange(row int, tret, t float64) float64 { return math.Inf(1) }

// countingEnv is an Env as the bank sees it, counting the exact decay
// evaluations the bank asks for: a sense that asks for none was decided by
// the decay bound alone.
type countingEnv struct {
	*Env
	calls int
}

func (c *countingEnv) DecayFactor(row int, tret, t0, t1 float64, base retention.DecayModel) float64 {
	c.calls++
	return c.Env.DecayFactor(row, tret, t0, t1, base)
}

// boundBank builds the fuzz target's bank: rows of drawn retention, under
// the drawn decay law and one of three retention views - plain, a VRT
// process, or a catalog scenario (odd multiples of the catalog size append
// a weak-cell telegraph). env is nil unless the bank carries a scenario.
func boundBank(seed int64, rows int, view uint8, linear bool) (*dram.Bank, *countingEnv, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &retention.BankProfile{
		Geom:     device.BankGeometry{Rows: rows, Cols: 4},
		True:     make([]float64, rows),
		Profiled: make([]float64, rows),
	}
	for r := range p.True {
		p.True[r] = 0.02 * math.Pow(50, rng.Float64()) // 20 ms .. 1 s
		p.Profiled[r] = retention.ProfileRetention(p.True[r])
	}
	var decay retention.DecayModel = retention.ExpDecay{}
	if linear {
		decay = retention.LinearDecay{}
	}
	b, err := dram.NewBank(p, decay, retention.PatternAllZeros)
	if err != nil {
		return nil, nil, err
	}
	names := Names()
	switch k := int(view) % (2*len(names) + 2); {
	case k == 0:
		return b, nil, nil
	case k == 1:
		v := retention.VRT{AffectedFrac: 0.5, LowFactor: 0.1 + 0.8*rng.Float64(), MeanDwell: 0.01 + 0.1*rng.Float64(), Seed: seed}
		return b, nil, b.SetVRT(&v)
	default:
		k -= 2
		window := []float64{fleetWindow, testWindow}[rng.Intn(2)]
		env, err := BuildEnv(Ref{Name: names[k%len(names)]}, window, seed)
		if err != nil {
			return nil, nil, err
		}
		if k/len(names) == 1 {
			env.Stressors = append(env.Stressors, VRTStressor{Label: "weak-cells", V: *fault.DefaultTransientWeakCells(seed + 1)})
		}
		c := &countingEnv{Env: env}
		return b, c, b.SetModulator(c)
	}
}

// FuzzSenseBound drives one bank through a script of activations at drawn
// limits, retirements and closing sweeps, with charges drawn anywhere in
// [0, 1] and as close above the sensing limit as 1e-12, and time steps
// from one tick to twice a row's retention. Every decision, violation and
// row state must equal the exact path's, computed beforehand with ChargeAt;
// and where the bank asked a scenario for no decay evaluation, the exact
// charge must be at or above both limits.
func FuzzSenseBound(f *testing.F) {
	f.Add(int64(42), uint8(16), uint8(0), false, []byte{0, 3, 9, 1, 4, 200, 2, 7, 50, 0, 2, 255})
	f.Add(int64(7), uint8(40), uint8(1), true, []byte{1, 0, 0, 0, 1, 17, 3, 5, 5, 0, 9, 100, 2, 0, 0})
	f.Add(int64(3), uint8(64), uint8(7), false, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 2, 0, 0})
	f.Add(int64(11), uint8(8), uint8(13), true, []byte{4, 4, 4, 0, 0, 250, 0, 1, 251, 2, 2, 2})
	// Plain banks under both laws, closing sweeps first: rows sagging below
	// the limit and rows just above it.
	f.Add(int64(5), uint8(32), uint8(0), false, []byte{4, 0, 40, 0, 1, 200, 4, 0, 20, 3, 5, 60, 4, 0, 10})
	f.Add(int64(6), uint8(32), uint8(0), true, []byte{4, 0, 40, 0, 1, 200, 4, 0, 20, 3, 5, 60, 4, 0, 10})
	f.Fuzz(func(t *testing.T, seed int64, nrows, view uint8, linear bool, script []byte) {
		if len(script) > 384 {
			return
		}
		rows := 4 + int(nrows)%61
		b, env, err := boundBank(seed, rows, view, linear)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		st := b.State()
		for r := range st.Charge {
			switch rng.Intn(3) {
			case 0:
				st.Charge[r] = rng.Float64()
			case 1:
				st.Charge[r] = retention.SenseLimit * (1 + math.Pow(10, -12*rng.Float64()))
			}
		}
		if err := b.SetState(st); err != nil {
			t.Fatal(err)
		}
		now := int64(0)
		for i := 0; i+2 < len(script); i += 3 {
			op, row := script[i]%5, int(script[i+1])%rows
			tret := b.Profile.True[row]
			now += 1 + dram.Ticks(2*tret*math.Pow(10, -6*float64(script[i+2])/255))
			if err := checkSenseStep(b, env, op, row, now); err != nil {
				t.Fatalf("step %d (op %d row %d tick %d): %v", i/3, op, row, now, err)
			}
		}
	})
}

// checkSenseStep runs one scripted operation - an Access against one of
// four limits, a retirement, or a CheckAll - and compares it with the exact
// path.
func checkSenseStep(b *dram.Bank, env *countingEnv, op uint8, row int, now int64) error {
	want := b.State()
	if op == 3 {
		if err := b.Retire(row); err != nil {
			return err
		}
		want.Retired = b.Retired()
		return sameState(b, want)
	}
	retired := make(map[int]bool)
	for _, r := range want.Retired {
		retired[r] = true
	}
	if op == 4 {
		wantBad := 0
		for r := range want.Charge {
			if retired[r] {
				continue
			}
			v, err := b.ChargeAt(r, now)
			if err != nil {
				return err
			}
			if v < retention.SenseLimit {
				want.Violations = append(want.Violations, dram.Violation{Row: r, Time: dram.Seconds(now), Charge: v})
				wantBad++
			}
		}
		bad, err := b.CheckAll(now)
		if err != nil || bad != wantBad {
			return fmt.Errorf("CheckAll = (%d, %v), exact path %d", bad, err, wantBad)
		}
		return sameState(b, want)
	}
	limit := []float64{0, retention.SenseLimit, 0.35, 0.9}[op]
	v, err := b.ChargeAt(row, now)
	if err != nil {
		return err
	}
	calls := 0
	if env != nil {
		calls = env.calls
	}
	charge, low, err := b.Access(row, now, limit)
	if err != nil {
		return err
	}
	if env != nil && env.calls == calls && (v < limit || v < retention.SenseLimit) {
		return fmt.Errorf("the bound cleared a read of exact charge %.17g against limit %v", v, limit)
	}
	wantCharge := 0.0
	if v < limit {
		wantCharge = v
	}
	if low != (v < limit) || charge != wantCharge {
		return fmt.Errorf("Access = (%.17g, %v), exact charge %.17g against limit %v", charge, low, v, limit)
	}
	if v < retention.SenseLimit && !retired[row] {
		want.Violations = append(want.Violations, dram.Violation{Row: row, Time: dram.Seconds(now), Charge: v})
	}
	want.Charge[row], want.LastT[row] = 1, now
	return sameState(b, want)
}

// sameState compares the bank's state with the exact path's.
func sameState(b *dram.Bank, want dram.State) error {
	if got := b.State(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("bank state differs from the exact path's:\n got %+v\nwant %+v", got, want)
	}
	return nil
}

// TestSenseBoundSkipsScenarioWalks: on a fleet-shaped kitchen-sink bank
// with weak cells, the bound decides the activations of healthy rows a
// patrol interval after their restore without asking the Env for a walk.
func TestSenseBoundSkipsScenarioWalks(t *testing.T) {
	env, err := BuildEnv(Ref{Name: "kitchen-sink"}, fleetWindow, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	env.Stressors = append(env.Stressors, VRTStressor{Label: "weak-cells", V: *fault.DefaultTransientWeakCells(testSeed + 1)})
	const rows = 64
	p := &retention.BankProfile{
		Geom:     device.BankGeometry{Rows: rows, Cols: 4},
		True:     make([]float64, rows),
		Profiled: make([]float64, rows),
	}
	for r := range p.True {
		p.True[r], p.Profiled[r] = 0.5, retention.ProfileRetention(0.5)
	}
	b, err := dram.NewBank(p, retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}
	c := &countingEnv{Env: env}
	if err := b.SetModulator(c); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		if _, low, err := b.Access(r, dram.Ticks(0.016), retention.SenseLimit); err != nil || low {
			t.Fatalf("row %d: low %v, err %v", r, low, err)
		}
	}
	if bad, err := b.CheckAll(dram.Ticks(0.032)); err != nil || bad != 0 {
		t.Fatalf("CheckAll = (%d, %v)", bad, err)
	}
	if c.calls != 0 {
		t.Fatalf("the bank asked for %d decay walks; the bound should decide every read", c.calls)
	}
}
