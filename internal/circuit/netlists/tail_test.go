package netlists

import (
	"math"
	"testing"

	"vrldram/internal/device"
)

// uniformGrid disables a meter's coarse tail, leaving the uniform grid of
// tstop/preSenseSteps that the tail's fine prefix reproduces.
func uniformGrid(m *PreSenseMeter) {
	m.opts.FineStop, m.opts.TailMult = 0, 0
}

// TestPreSenseTailMatchesUniform: on every Table 1 geometry and data
// pattern, the two-rate grid must measure a T95 bit-identical to the
// uniform grid's. The crossing is a fine-grid sample time on both, so only
// the tail's error in the final value could move it, by shifting the
// crossing level past a sample.
func TestPreSenseTailMatchesUniform(t *testing.T) {
	p := device.Default90nm()
	for _, g := range device.Table1Banks {
		for _, pattern := range []string{"zeros", "ones", "alt", "random"} {
			t.Run(g.String()+"/"+pattern, func(t *testing.T) {
				t.Parallel()
				tail, uniform := tailAndUniform(t, p, g, pattern, 0.95)
				if worst, err := tail.slowestCrossing(tail.opts); err != nil {
					t.Fatal(err)
				} else if worst > tail.opts.FineStop {
					t.Fatalf("crossing at %g s lies past the fine region (%g s): the fallback ran", worst, tail.opts.FineStop)
				}
				assertSameT95(t, tail, uniform)
			})
		}
	}
}

// TestPreSenseTailFallback: a target whose crossing lies past the fine
// region must take the uniform-grid rerun and so match the uniform grid too.
func TestPreSenseTailFallback(t *testing.T) {
	p := device.Default90nm()
	tail, uniform := tailAndUniform(t, p, device.BankGeometry{Rows: 2048, Cols: 32}, "ones", 0.995)
	worst, err := tail.slowestCrossing(tail.opts)
	if err != nil {
		t.Fatal(err)
	}
	if worst <= tail.opts.FineStop {
		t.Fatalf("crossing at %g s lies inside the fine region (%g s): the fallback is not exercised", worst, tail.opts.FineStop)
	}
	assertSameT95(t, tail, uniform)
}

func tailAndUniform(t *testing.T, p device.Params, g device.BankGeometry, pattern string, target float64) (tail, uniform *PreSenseMeter) {
	t.Helper()
	tail, err := NewPreSenseMeter(p, g, pattern, target)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err = NewPreSenseMeter(p, g, pattern, target)
	if err != nil {
		t.Fatal(err)
	}
	uniformGrid(uniform)
	return tail, uniform
}

func assertSameT95(t *testing.T, tail, uniform *PreSenseMeter) {
	t.Helper()
	a, err := tail.Measure()
	if err != nil {
		t.Fatal(err)
	}
	b, err := uniform.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if a.T95 != b.T95 || a.Cycles != b.Cycles {
		t.Fatalf("two-rate grid: T95 %.6g s (%d cycles); uniform grid: %.6g s (%d cycles)", a.T95, a.Cycles, b.T95, b.Cycles)
	}
}

func TestNewPreSenseMeterRejectsTarget(t *testing.T) {
	p := device.Default90nm()
	for _, target := range []float64{0, 1, 1.5, -0.2, math.NaN()} {
		if _, err := NewPreSenseMeter(p, device.BankGeometry{Rows: 2048, Cols: 4}, "ones", target); err == nil {
			t.Errorf("target %g accepted", target)
		}
	}
}
