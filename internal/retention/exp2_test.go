package retention

import (
	"math"
	"math/rand"
	"testing"
)

// sameFloat reports whether a and b are the same float64, bit for bit (so
// NaN equals NaN and +0 differs from -0).
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestExp2Edges pins Exp2 to math.Exp2 at the edges of its exponent-field
// fast path and on every special input: ±1020 and just beyond, the
// subnormal results below -1021 that fall back to math.Exp2, the
// overflow edge, ±0, NaN, ±Inf and denormal arguments.
func TestExp2Edges(t *testing.T) {
	xs := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 1.5, -1.5,
		1020, -1020, 1020.5, -1020.5, math.Nextafter(1020, 0), math.Nextafter(1020, 2000),
		math.Nextafter(-1020, 0), math.Nextafter(-1020, -2000),
		1023, 1023.9999, 1024, 1025, -1074, -1074.5, -1075, -1076, -2000, 2000,
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1030,
		0x1p-28, -0x1p-28, 1e-300, -1e-300, math.MaxFloat64, -math.MaxFloat64,
	}
	for x := -1021.0; x >= -1075; x-- {
		xs = append(xs, x, x+0.25, x-0.5)
	}
	for _, x := range xs {
		if got, want := Exp2(x), math.Exp2(x); !sameFloat(got, want) {
			t.Errorf("Exp2(%v) = %v (%#x), math.Exp2 = %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestExp2DecayRange compares Exp2 with math.Exp2 over the arguments the
// decay walks produce: -dt/tret for every dt up to hundreds of retention
// times, and small positive and negative values around the reduction's
// rounding boundaries (k + 0.5).
func TestExp2DecayRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		var x float64
		switch i % 4 {
		case 0:
			x = -rng.Float64() * 4
		case 1:
			x = -rng.ExpFloat64() * 50
		case 2:
			x = float64(rng.Intn(2041)-1020) + 0.5 + (rng.Float64()-0.5)*1e-12
		default:
			x = (rng.Float64()*2 - 1) * 1100
		}
		if got, want := Exp2(x), math.Exp2(x); !sameFloat(got, want) {
			t.Fatalf("Exp2(%v) = %#x, math.Exp2 = %#x", x, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// FuzzExp2 requires Exp2 to equal math.Exp2 bit for bit on any float64.
func FuzzExp2(f *testing.F) {
	for _, x := range []float64{0, -1, -0.5, 1020, -1020, 1020.5, -1021, -1074.5, 1024, math.Inf(-1), math.NaN(), 0x1p-1030} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		if got, want := Exp2(x), math.Exp2(x); !sameFloat(got, want) {
			t.Fatalf("Exp2(%v) = %#x, math.Exp2 = %#x", x, math.Float64bits(got), math.Float64bits(want))
		}
	})
}

func BenchmarkExp2(b *testing.B) {
	xs := make([]float64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range xs {
		xs[i] = -rng.Float64() * 4
	}
	b.Run("retention", func(b *testing.B) {
		s := 0.0
		for i := 0; i < b.N; i++ {
			s += Exp2(xs[i&1023])
		}
		exp2Sink = s
	})
	b.Run("math", func(b *testing.B) {
		s := 0.0
		for i := 0; i < b.N; i++ {
			s += math.Exp2(xs[i&1023])
		}
		exp2Sink = s
	})
}

var exp2Sink float64
