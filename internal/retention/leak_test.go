package retention

import (
	"math"
	"math/rand"
	"testing"
)

// walkOf accumulates the segments (dt[i], tret[i]) through a DecayWalk.
func walkOf(base DecayModel, dt, tret []float64) float64 {
	w := NewDecayWalk(base)
	for i := range dt {
		w.Add(dt[i], tret[i])
	}
	return w.Factor()
}

// TestDecayWalkExactBinaryExponents checks the exponential walk against the
// closed form 2^(-Σ dtᵢ/tretᵢ) on schedules whose exponent is an exact
// binary fraction: dtᵢ = mᵢ/64 s and every retention a power of two 2^eᵢ,
// so each term is mᵢ·2^-(6+eᵢ) and the sum is an integer count of 2^-40
// units. The closed form is built from that integer alone, so the walk must
// hit math.Exp2 of it bit for bit, and 2^-n exactly for an integer exponent
// n.
func TestDecayWalkExactBinaryExponents(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const unit = 40 // the exponent is counted in 2^-unit
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		dt := make([]float64, n)
		tret := make([]float64, n)
		var units int64
		for i := range dt {
			m := int64(1 + rng.Intn(256))
			e := rng.Intn(12) - 2 // tret = 2^e: 1/4 s to 512 s
			dt[i] = float64(m) / 64
			tret[i] = math.Ldexp(1, e)
			units += m << (unit - 6 - e)
		}
		want := math.Exp2(-math.Ldexp(float64(units), -unit))
		if got := walkOf(ExpDecay{}, dt, tret); got != want {
			t.Fatalf("trial %d: walk %.17g, closed form %.17g (exponent %d/2^%d)", trial, got, want, units, unit)
		}
	}
	// Integer exponents: 2^-n exactly, down to the smallest subnormal.
	for _, n := range []int{1, 7, 52, 1022, 1074} {
		dt := make([]float64, n)
		tret := make([]float64, n)
		for i := range dt {
			// Alternate retention scales so the segments are not uniform:
			// 0.25 s over 0.5 s and 1 s over 2 s are each exponent 1/2.
			dt[i], tret[i] = 0.25, 0.5
			if i%2 == 1 {
				dt[i], tret[i] = 1, 2
			}
		}
		dt, tret = append(dt, dt...), append(tret, tret...)
		if got, want := walkOf(ExpDecay{}, dt, tret), math.Ldexp(1, -n); got != want {
			t.Fatalf("exponent %d: walk %g, want 2^-%d = %g", n, got, n, want)
		}
	}
}

// TestDecayWalkUnderflow: a long walk whose exponent passes the subnormal
// range decays to exactly 0.
func TestDecayWalkUnderflow(t *testing.T) {
	w := NewDecayWalk(ExpDecay{})
	for i := 0; i < 5000; i++ {
		w.Add(0.064, 0.2)
	}
	if f := w.Factor(); f != 0 {
		t.Fatalf("5000 segments of exponent 0.32: factor %g, want 0", f)
	}
}

// TestDecayWalkSpecialCases pins the exponential walk's special cases to
// ExpDecay.Factor's: dt <= 0 adds nothing, a non-positive retention decays
// to 0, +Inf retention decays nothing, and NaN propagates. Every one-segment
// walk is ExpDecay.Factor bit for bit, and under any other law the walk is
// the product of base.Factor over its segments.
func TestDecayWalkSpecialCases(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	same := func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
	cases := []struct {
		name     string
		dt, tret []float64
		want     float64
	}{
		{"empty walk", nil, nil, 1},
		{"non-positive dt", []float64{0, -1, math.Copysign(0, -1)}, []float64{0.5, 0.5, 0.5}, 1},
		{"non-positive dt is skipped", []float64{0.25, -3, 0, 0.25}, []float64{0.5, 0.5, 0.5, 0.5}, 0.5},
		{"zero retention", []float64{0.25, 0.1}, []float64{0.5, 0}, 0},
		{"negative retention", []float64{0.1, 0.25}, []float64{-1, 0.5}, 0},
		{"infinite retention", []float64{5, 0.25}, []float64{inf, 0.25}, 0.5},
		{"NaN dt", []float64{0.25, nan}, []float64{0.5, 0.5}, nan},
		{"NaN retention", []float64{0.25, 0.25}, []float64{nan, 0.5}, nan},
		{"NaN after zero retention", []float64{0.1, 0.1}, []float64{0, nan}, nan},
	}
	for _, c := range cases {
		if got := walkOf(ExpDecay{}, c.dt, c.tret); !same(got, c.want) {
			t.Errorf("%s: walk %g, want %g", c.name, got, c.want)
		}
	}

	special := []float64{0, math.Copysign(0, -1), -1, 1e-300, 0.064, 0.5, 1, 3, 1e300, inf, -inf, nan}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		special = append(special, rng.ExpFloat64())
	}
	for _, dt := range special {
		for _, tret := range special {
			for _, base := range []DecayModel{ExpDecay{}, LinearDecay{}} {
				if got, want := walkOf(base, []float64{dt}, []float64{tret}), base.Factor(dt, tret); !same(got, want) {
					t.Fatalf("%s one segment (%g, %g): walk %g, Factor %g", base.Name(), dt, tret, got, want)
				}
			}
		}
	}

	dt := []float64{0.1, 0.03, 0, 0.2, 0.05}
	tret := []float64{0.4, 0.1, 0.3, 0.25, 1}
	want := 1.0
	for i := range dt {
		want *= LinearDecay{}.Factor(dt[i], tret[i])
	}
	if got := walkOf(LinearDecay{}, dt, tret); got != want {
		t.Fatalf("linear walk %.17g, product of factors %.17g", got, want)
	}
}
