package retention

import (
	"math"
	"testing"
)

func TestAgingModelScale(t *testing.T) {
	m := DefaultAgingModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if s := m.Scale(0); s != 1 {
		t.Fatalf("Scale(0) = %g, want 1", s)
	}
	if s := m.Scale(-3); s != 1 {
		t.Fatalf("Scale(-3) = %g, want 1 (aging never improves retention backwards)", s)
	}
	one := m.Scale(1)
	if want := 1 - m.RatePerYear; math.Abs(one-want) > 1e-12 {
		t.Fatalf("Scale(1) = %g, want %g", one, want)
	}
	// Compounding: ten years is the tenth power of one year, and the scale
	// decreases monotonically.
	if got, want := m.Scale(10), math.Pow(one, 10); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Scale(10) = %g, want %g", got, want)
	}
	prev := 1.0
	for y := 1.0; y <= 30; y++ {
		s := m.Scale(y)
		if s >= prev || s <= 0 {
			t.Fatalf("Scale(%g) = %g not in (0, %g)", y, s, prev)
		}
		prev = s
	}
}

func TestAgingModelValidate(t *testing.T) {
	for _, bad := range []float64{-0.01, 1, 1.5} {
		if err := (AgingModel{RatePerYear: bad}).Validate(); err == nil {
			t.Fatalf("rate %g must not validate", bad)
		}
	}
	if err := (AgingModel{RatePerYear: 0}).Validate(); err != nil {
		t.Fatalf("zero rate (no aging) must validate: %v", err)
	}
}

// TestVRTNextToggleMatchesDecaySegments pins the contract the scenario layer
// builds on: segmenting [t0,t1] at NextToggle boundaries and accumulating
// the segments, retention scaled by StateFactor, through a DecayWalk
// reproduces DecayFactor bit for bit.
func TestVRTNextToggleMatchesDecaySegments(t *testing.T) {
	v := VRT{AffectedFrac: 0.6, LowFactor: 0.25, MeanDwell: 0.07, MinRetention: 0.02, Seed: 5}
	base := ExpDecay{}
	affected := 0
	for row := 0; row < 64; row++ {
		tret := 0.05 + 0.01*float64(row%20)
		if v.Affected(row, tret) {
			affected++
		}
		for i := 0; i < 8; i++ {
			t0 := 0.09 * float64(i)
			t1 := t0 + 0.23
			want := v.DecayFactor(row, tret, t0, t1, base)
			walk := NewDecayWalk(base)
			tt := t0
			for tt < t1 {
				next := v.NextToggle(row, tret, tt)
				if next > t1 {
					next = t1
				}
				walk.Add(next-tt, tret*v.StateFactor(row, tret, tt))
				tt = next
			}
			got := walk.Factor()
			if got != want {
				t.Fatalf("row %d tret %g [%g,%g]: segmented %v, DecayFactor %v", row, tret, t0, t1, got, want)
			}
		}
	}
	if affected == 0 {
		t.Fatal("no affected rows; the equivalence was tested on the trivial path only")
	}

	// Unaffected rows never toggle.
	v2 := VRT{AffectedFrac: 0, LowFactor: 0.5, MeanDwell: 0.1, Seed: 1}
	if !math.IsInf(v2.NextToggle(3, 0.2, 0.05), 1) {
		t.Fatal("unaffected row must report +Inf next toggle")
	}
}
