package dram

import (
	"math"
	"math/rand"
	"testing"

	"vrldram/internal/retention"
)

// otherDecay is a decay law the sense bound does not know.
type otherDecay struct{ retention.ExpDecay }

// plainModulator is a Modulator with no floor capability.
type plainModulator struct{}

func (plainModulator) DecayFactor(row int, tret, t0, t1 float64, base retention.DecayModel) float64 {
	return base.Factor(t1-t0, tret)
}

// TestSenseBoundSound draws charges just above a limit, intervals from a
// few ticks to twice the retention, and restore times up to a device-year,
// and requires every read the bound clears to hold at least the limit
// exactly, for each decay law with and without a VRT process. The bound
// must also clear reads: a strong row read a refresh period after its
// restore, and a quarter of the drawn ones.
func TestSenseBoundSound(t *testing.T) {
	vrt := retention.VRT{AffectedFrac: 0.7, LowFactor: 0.3, MeanDwell: 0.05, MinRetention: 0, Seed: 3}
	for _, tc := range []struct {
		name  string
		decay retention.DecayModel
		vrt   *retention.VRT
	}{
		{"exp", retention.ExpDecay{}, nil},
		{"linear", retention.LinearDecay{}, nil},
		{"exp-vrt", retention.ExpDecay{}, &vrt},
		{"linear-vrt", retention.LinearDecay{}, &vrt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := NewBank(smallProfile(t), tc.decay, retention.PatternAllZeros)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.SetVRT(tc.vrt); err != nil {
				t.Fatal(err)
			}
			slope := b.boundSlope()
			if strong := b.Geom.Rows - 1; !b.cleared(slope, strong, Ticks(0.064), retention.SenseLimit) {
				t.Fatal("the bound does not clear a full strong row read 64 ms after its restore")
			}
			rng := rand.New(rand.NewSource(7))
			const draws = 20000
			clears := 0
			for i := 0; i < draws; i++ {
				r := rng.Intn(b.Geom.Rows)
				limit := []float64{retention.SenseLimit, 0.35, 0.9}[rng.Intn(3)]
				b.charge[r] = math.Min(1, limit*(1+math.Pow(10, -12*rng.Float64())))
				b.lastT[r] = Ticks(3.15e7 * rng.Float64() * float64(rng.Intn(2)))
				at := b.lastT[r] + 1 + Ticks(2*b.tret[r]*math.Pow(10, -9*rng.Float64()))
				if !b.cleared(slope, r, at, limit) {
					continue
				}
				clears++
				if v, err := b.ChargeAt(r, at); err != nil || v < limit {
					t.Fatalf("draw %d: bound cleared row %d (charge %.17g, %d ticks) against %v, exact %.17g (err %v)",
						i, r, b.charge[r], at-b.lastT[r], limit, v, err)
				}
			}
			if clears < draws/4 {
				t.Fatalf("the bound cleared %d of %d draws", clears, draws)
			}
		})
	}
}

// TestSenseBoundNeedsAKnownView: a decay law the bound does not know, or a
// modulator without a floor, clears no read.
func TestSenseBoundNeedsAKnownView(t *testing.T) {
	b, err := NewBank(smallProfile(t), otherDecay{}, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}
	if b.cleared(b.boundSlope(), 0, 1, 0) {
		t.Fatal("the bound cleared a read under an unknown decay law")
	}
	if b, err = NewBank(smallProfile(t), retention.ExpDecay{}, retention.PatternAllZeros); err != nil {
		t.Fatal(err)
	}
	if err := b.SetModulator(plainModulator{}); err != nil {
		t.Fatal(err)
	}
	if b.cleared(b.boundSlope(), 0, 1, 0) {
		t.Fatal("the bound cleared a read under a modulator without a floor")
	}
}
