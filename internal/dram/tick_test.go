package dram

import (
	"math"
	"math/rand"
	"testing"
)

// TestTicksOfPaperPeriods: every retention bin is a whole number of ticks,
// and the round trip through seconds is exact for them.
func TestTicksOfPaperPeriods(t *testing.T) {
	for _, c := range []struct {
		s    float64
		want int64
	}{{0.064, 51_200_000}, {0.128, 102_400_000}, {0.192, 153_600_000}, {0.256, 204_800_000}, {3.072, 2_457_600_000}} {
		if got := Ticks(c.s); got != c.want {
			t.Errorf("Ticks(%g) = %d, want %d", c.s, got, c.want)
		}
		if back := Ticks(Seconds(c.want)); back != c.want {
			t.Errorf("Ticks(Seconds(%d)) = %d", c.want, back)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1.2e10, -1.2e10} {
		if CheckSeconds("t", bad) == nil {
			t.Errorf("CheckSeconds(%g) accepted", bad)
		}
	}
	if err := CheckSeconds("t", 31536000); err != nil {
		t.Errorf("a device-year rejected: %v", err)
	}
}

// TestChargeSumIsOrderIndependent: the same deltas summed in two orders,
// and as k copies versus one multiple, give the same bits.
func TestChargeSumIsOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	deltas := make([]float64, 5000)
	for i := range deltas {
		deltas[i] = rng.Float64()
	}
	var fwd, rev ChargeSum
	for i := range deltas {
		fwd.Add(deltas[i])
		rev.Add(deltas[len(deltas)-1-i])
	}
	if fwd != rev {
		t.Fatalf("forward %+v, reverse %+v", fwd, rev)
	}
	// k copies of a span well past int64 on the 2^-40 grid.
	const k = 10_000_000
	var many ChargeSum
	for i := 0; i < 1000; i++ {
		many = many.Plus(fwd.Times(k / 1000))
	}
	if got := fwd.Times(k); got != many {
		t.Fatalf("Times %+v, repeated Plus %+v", got, many)
	}
	if many.Hi == 0 {
		t.Fatal("the sum never left the low word; the 128-bit path is untested")
	}
	if d := many.Minus(fwd.Times(k - 1)); d != fwd {
		t.Fatalf("Minus %+v, want %+v", d, fwd)
	}
	sum := 0.0
	for _, d := range deltas {
		sum += d
	}
	if got := fwd.Float64(); math.Abs(got-sum) > 1e-6 {
		t.Fatalf("Float64 %g, float sum %g", got, sum)
	}
	if got, want := many.Float64(), sum*k; math.Abs(got-want) > 1e-6*want {
		t.Fatalf("Float64 of the multiple %g, want about %g", got, want)
	}
	var neg ChargeSum
	neg.Add(-0.5)
	if got := neg.Float64(); got != -0.5 {
		t.Fatalf("negative sum reads %g", got)
	}
}
