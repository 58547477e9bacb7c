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

// scaledModulator is a FlooredModulator that scales every row's retention
// by one constant.
type scaledModulator struct{ scale float64 }

func (m scaledModulator) DecayFactor(row int, tret, t0, t1 float64, base retention.DecayModel) float64 {
	return base.Factor(t1-t0, tret*m.scale)
}

func (m scaledModulator) MinScale() float64 { return m.scale }

// TestSenseBoundFollowsTheView switches one bank's decay law through its
// Decay field alone, and its retention view through SetVRT or SetModulator
// alone, between reads, mostly to a view whose bound is steeper than the
// last one's. Every later Access and the closing CheckAll must decide as a
// bank built fresh with the current view does, from the same state: a
// bound still computed for an earlier view would clear reads the current
// one does not, and miss their violations.
func TestSenseBoundFollowsTheView(t *testing.T) {
	vrt := retention.VRT{AffectedFrac: 1, LowFactor: 0.3, MeanDwell: 0.05, Seed: 5}
	type view struct {
		name  string
		decay retention.DecayModel
		vrt   *retention.VRT
		mod   Modulator
		floor float64 // the view's lowest retention scale
	}
	views := []view{
		{"linear", retention.LinearDecay{}, nil, nil, 1},
		{"exp", retention.ExpDecay{}, nil, nil, 1},                              // the law alone
		{"exp-mod", retention.ExpDecay{}, nil, scaledModulator{0.8}, 0.8},       // SetModulator alone
		{"exp-mod-steep", retention.ExpDecay{}, nil, scaledModulator{0.3}, 0.3}, // SetModulator alone
		{"linear", retention.LinearDecay{}, nil, nil, 1},
		{"linear-vrt", retention.LinearDecay{}, &vrt, nil, 0.3}, // SetVRT alone
		{"exp-vrt", retention.ExpDecay{}, &vrt, nil, 0.3},       // the law alone
		{"other", otherDecay{}, nil, nil, 1},
		{"exp", retention.ExpDecay{}, nil, nil, 1},
	}
	prof := smallProfile(t)
	b, err := NewBank(prof, views[0].decay, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var prev view
	total := 0
	for _, v := range views {
		// Switch the live bank with only the calls the change needs.
		b.Decay = v.decay
		if prev.vrt != v.vrt {
			if err := b.SetVRT(nil); err != nil {
				t.Fatal(err)
			}
		}
		if prev.mod != v.mod {
			if err := b.SetModulator(v.mod); err != nil {
				t.Fatal(err)
			}
		}
		if prev.vrt != v.vrt {
			if err := b.SetVRT(v.vrt); err != nil {
				t.Fatal(err)
			}
		}
		prev = v
		fresh, err := NewBank(prof, v.decay, retention.PatternAllZeros)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.SetModulator(v.mod); err != nil {
			t.Fatal(err)
		}
		if err := fresh.SetVRT(v.vrt); err != nil {
			t.Fatal(err)
		}
		if err := fresh.SetState(b.State()); err != nil {
			t.Fatal(err)
		}
		before := b.ViolationCount()
		end := int64(0)
		for i := 0; i < 2000; i++ {
			r := rng.Intn(b.Geom.Rows)
			c := 0.5 + 0.5*rng.Float64()
			b.charge[r], fresh.charge[r] = c, c
			at := b.lastT[r] + Ticks(1.5*v.floor*b.tret[r]*rng.Float64())
			limit := []float64{0, retention.SenseLimit, 0.9}[rng.Intn(3)]
			c1, low1, err1 := b.Access(r, at, limit)
			c2, low2, err2 := fresh.Access(r, at, limit)
			if c1 != c2 || low1 != low2 || err1 != nil || err2 != nil {
				t.Fatalf("%s: read %d of row %d: (%v, %v, %v), a fresh bank gives (%v, %v, %v)",
					v.name, i, r, c1, low1, err1, c2, low2, err2)
			}
			end = max(end, at)
		}
		for r := range b.charge {
			c := 0.5 + 0.5*rng.Float64()
			b.charge[r], fresh.charge[r] = c, c
		}
		end += Ticks(0.05)
		n1, err1 := b.CheckAll(end)
		n2, err2 := fresh.CheckAll(end)
		if n1 != n2 || err1 != nil || err2 != nil {
			t.Fatalf("%s: CheckAll gives %d (%v), a fresh bank %d (%v)", v.name, n1, err1, n2, err2)
		}
		got, want := b.Violations(), fresh.Violations()
		if len(got) != len(want) {
			t.Fatalf("%s: %d violations, a fresh bank records %d", v.name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: violation %d is %+v, a fresh bank records %+v", v.name, i, got[i], want[i])
			}
		}
		total += len(got) - before
	}
	if total == 0 {
		t.Fatal("no read violated: the test does not reach the bound's edge")
	}
}
