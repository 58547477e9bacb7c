package retention

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVRTValidate(t *testing.T) {
	if err := DefaultVRT().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*VRT){
		func(v *VRT) { v.AffectedFrac = -1 },
		func(v *VRT) { v.AffectedFrac = 2 },
		func(v *VRT) { v.LowFactor = 0 },
		func(v *VRT) { v.LowFactor = 1 },
		func(v *VRT) { v.MeanDwell = 0 },
		func(v *VRT) { v.MinRetention = -1 },
		func(v *VRT) { v.AffectedFrac = math.NaN() },
		func(v *VRT) { v.LowFactor = math.NaN() },
		func(v *VRT) { v.MeanDwell = math.NaN() },
		func(v *VRT) { v.MinRetention = math.NaN() },
	}
	for i, mut := range bad {
		v := DefaultVRT()
		mut(&v)
		if err := v.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestVRTAffectedFraction(t *testing.T) {
	v := DefaultVRT()
	const rows = 100000
	n := 0
	for r := 0; r < rows; r++ {
		if v.Affected(r, 1.0) {
			n++
		}
	}
	frac := float64(n) / rows
	if frac < 0.006 || frac > 0.015 {
		t.Fatalf("affected fraction %v, want ~%v", frac, v.AffectedFrac)
	}
	// Rows below MinRetention are never affected.
	for r := 0; r < 1000; r++ {
		if v.Affected(r, v.MinRetention/2) {
			t.Fatal("defect-limited row must not be VRT-modulated")
		}
	}
}

func TestVRTStateFactorTelegraph(t *testing.T) {
	v := DefaultVRT()
	// Find an affected row.
	row := -1
	for r := 0; r < 10000; r++ {
		if v.Affected(r, 1.0) {
			row = r
			break
		}
	}
	if row < 0 {
		t.Fatal("no affected row found")
	}
	sawHigh, sawLow := false, false
	for i := 0; i < 200; i++ {
		f := v.StateFactor(row, 1.0, float64(i)*0.05)
		switch f {
		case 1:
			sawHigh = true
		case v.LowFactor:
			sawLow = true
		default:
			t.Fatalf("state factor %v is neither 1 nor LowFactor", f)
		}
	}
	if !sawHigh || !sawLow {
		t.Fatal("telegraph process must visit both states over many dwells")
	}
	// Unaffected rows are always in the high state.
	for r := 0; r < 100; r++ {
		if !v.Affected(r, 1.0) {
			if v.StateFactor(r, 1.0, 0.123) != 1 {
				t.Fatal("unaffected row left the high state")
			}
			break
		}
	}
}

// TestVRTSegmentMatchesStateAndToggle: Segment is StateFactor and
// NextToggle from one evaluation, bit for bit, including at toggle
// boundaries and one ulp either side of them, where the epsilon guard acts.
func TestVRTSegmentMatchesStateAndToggle(t *testing.T) {
	v := DefaultVRT()
	v.AffectedFrac = 0.5
	for row := 0; row < 64; row++ {
		for _, tret := range []float64{0.1, 1.0} {
			tt := 0.0
			for i := 0; i < 20 && tt < 5; i++ {
				for _, x := range []float64{math.Nextafter(tt, 0), tt, math.Nextafter(tt, 10), tt + 0.01} {
					f, n := v.Segment(row, tret, x)
					if wf, wn := v.StateFactor(row, tret, x), v.NextToggle(row, tret, x); f != wf || n != wn {
						t.Fatalf("row %d tret %g t %.17g: Segment (%g, %.17g), want (%g, %.17g)", row, tret, x, f, n, wf, wn)
					}
				}
				tt = v.NextToggle(row, tret, tt)
			}
		}
	}
}

func TestVRTDecayFactorConsistency(t *testing.T) {
	v := DefaultVRT()
	base := ExpDecay{}
	// Unaffected rows: identical to the base law.
	row := -1
	for r := 0; r < 1000; r++ {
		if !v.Affected(r, 1.0) {
			row = r
			break
		}
	}
	got := v.DecayFactor(row, 1.0, 0.1, 0.35, base)
	want := base.Factor(0.25, 1.0)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("unaffected decay %v, want %v", got, want)
	}
	// Degenerate interval.
	if v.DecayFactor(row, 1.0, 0.5, 0.5, base) != 1 {
		t.Fatal("empty interval must not decay")
	}
}

// TestVRTDecayFactorAdvancesFarFromZero: 2.1e7 s into a run a toggle lands
// within an ulp of the walk's time, where Segment's epsilon step rounds
// back onto it; the walk must still finish, and decay.
func TestVRTDecayFactorAdvancesFarFromZero(t *testing.T) {
	v := VRT{AffectedFrac: 0.7, LowFactor: 0.3, MeanDwell: 0.05, Seed: 3}
	t0 := math.Float64frombits(0x4174613a9d025ae3)
	t1 := math.Float64frombits(0x4174613a9d6494b9)
	f := v.DecayFactor(13, 0.96, t0, t1, ExpDecay{})
	if !(f > 0 && f < 1) {
		t.Fatalf("decay factor %v over [%.17g, %.17g], want in (0, 1)", f, t0, t1)
	}
}

// TestVRTWalkVisitsEveryToggleFarFromZero walks ten dwells of every
// DefaultVRT row (all affected, tret 0.96 s) from 2.1e7 s and from
// 3.15e7 s, where half an ulp of t exceeds Segment's 1e-9-dwell step. A walk
// over [t0, t0+10d] crosses the toggles (k+1)d - phase for the ten k from
// floor((t0+phase)/d), and its first and last partial dwells share one
// state and add up to d, so it spends exactly 5d in each state. Segment's
// walk must meet all ten toggles with 5d of low state, and DecayFactor
// must decay by 5d/tret + 5d/(tret*LowFactor) halvings.
func TestVRTWalkVisitsEveryToggleFarFromZero(t *testing.T) {
	v := DefaultVRT()
	v.AffectedFrac = 1
	const tret = 0.96
	for _, t0 := range []float64{2.1e7, 3.15e7} {
		for row := 0; row < 256; row++ {
			r := v.Row(row, tret)
			t1 := t0 + 10*r.d
			low, toggles, state := 0.0, 0, 0.0
			for tt, steps := t0, 0; tt < t1; steps++ {
				f, next := r.Segment(tt)
				if !(next > tt) || steps > 1000 {
					t.Fatalf("t0 %g row %d: the walk stalls at %.17g (next %.17g)", t0, row, tt, next)
				}
				if steps > 0 && f != state {
					toggles++
				}
				state = f
				end := math.Min(next, t1)
				if f != 1 {
					low += end - tt
				}
				tt = end
			}
			if toggles != 10 || math.Abs(low-5*r.d) > 1e-6 {
				t.Fatalf("t0 %g row %d (dwell %g s): %d toggles and %g s low, want 10 and %g s", t0, row, r.d, toggles, low, 5*r.d)
			}
			got := -math.Log2(v.DecayFactor(row, tret, t0, t1, ExpDecay{}))
			want := 5*r.d/tret + 5*r.d/(tret*v.LowFactor)
			if math.Abs(got-want) > 1e-6*want {
				t.Fatalf("t0 %g row %d: DecayFactor decays %g halvings, want %g", t0, row, got, want)
			}
		}
	}
}

// Property: for the exponential law, the piecewise integration is
// multiplicative across any split point (the Chapman-Kolmogorov property of
// the decay process).
func TestVRTDecayComposition(t *testing.T) {
	v := DefaultVRT()
	base := ExpDecay{}
	f := func(rowRaw uint16, aRaw, bRaw, cRaw float64) bool {
		row := int(rowRaw)
		a := math.Mod(math.Abs(aRaw), 1)
		b := a + math.Mod(math.Abs(bRaw), 1)
		c := b + math.Mod(math.Abs(cRaw), 1)
		whole := v.DecayFactor(row, 1.5, a, c, base)
		split := v.DecayFactor(row, 1.5, a, b, base) * v.DecayFactor(row, 1.5, b, c, base)
		return math.Abs(whole-split) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: VRT decay is never SLOWER than the base law (the low state only
// leaks faster).
func TestVRTDecayNeverGainsCharge(t *testing.T) {
	v := DefaultVRT()
	base := ExpDecay{}
	f := func(rowRaw uint16, dtRaw float64) bool {
		row := int(rowRaw)
		dt := math.Mod(math.Abs(dtRaw), 2)
		got := v.DecayFactor(row, 1.0, 0, dt, base)
		return got <= base.Factor(dt, 1.0)+1e-12 && got >= 0 && got <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestVRTDeterministicAcrossSeeds(t *testing.T) {
	a, b := DefaultVRT(), DefaultVRT()
	if a.StateFactor(123, 1.0, 0.5) != b.StateFactor(123, 1.0, 0.5) {
		t.Fatal("same parameters must give the same process")
	}
	b.Seed = 99
	same := true
	for r := 0; r < 2000; r++ {
		if a.Affected(r, 1.0) != b.Affected(r, 1.0) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should affect different rows")
	}
}
