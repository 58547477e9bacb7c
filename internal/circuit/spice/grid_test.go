package spice

import (
	"math"
	"testing"
)

// TestGridRejectsDegenerateOptions: NaN passes a sign check, an infinite
// bound makes a step count of zero or of infinity, and a step count past the
// int range used to wrap negative, so a run printed only its t=0 sample and
// reported success. Every such grid must be refused before any step runs.
func TestGridRejectsDegenerateOptions(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		opts TransientOpts
	}{
		{"zero TStop", TransientOpts{TStop: 0, H: 1e-12}},
		{"negative H", TransientOpts{TStop: 1e-9, H: -1e-12}},
		{"NaN TStop", TransientOpts{TStop: nan, H: 1e-12}},
		{"NaN H", TransientOpts{TStop: 1e-9, H: nan}},
		{"Inf TStop", TransientOpts{TStop: inf, H: 1e-12}},
		{"Inf H", TransientOpts{TStop: 1e-9, H: inf}},
		{"-Inf H", TransientOpts{TStop: 1e-9, H: -inf}},
		{"int overflow", TransientOpts{TStop: 2e-9, H: 1e-30}},
		{"one step past the cap", TransientOpts{TStop: (maxSteps + 1) * 1e-12, H: 1e-12}},
		{"step dwarfs TStop", TransientOpts{TStop: 1e-20, H: 1}},
		{"FineStop without TailMult", TransientOpts{TStop: 1e-9, H: 1e-12, FineStop: 0.5e-9}},
		{"TailMult without FineStop", TransientOpts{TStop: 1e-9, H: 1e-12, TailMult: 8}},
		{"NaN FineStop", TransientOpts{TStop: 1e-9, H: 1e-12, FineStop: nan, TailMult: 8}},
		{"Inf FineStop", TransientOpts{TStop: 1e-9, H: 1e-12, FineStop: inf, TailMult: 8}},
		{"negative TailMult", TransientOpts{TStop: 1e-9, H: 1e-12, FineStop: 0.5e-9, TailMult: -8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if fine, tail, _, err := tc.opts.grid(); err == nil {
				t.Fatalf("grid accepted: %d fine and %d tail steps", fine, tail)
			}
		})
	}
}

func TestGridSteps(t *testing.T) {
	const h = 1e-12
	for _, tc := range []struct {
		name       string
		opts       TransientOpts
		fine, tail int
		hTail      float64
	}{
		{"uniform", TransientOpts{TStop: 1e-9, H: h}, 1000, 0, 0},
		{"at the cap", TransientOpts{TStop: maxSteps * h, H: h}, maxSteps, 0, 0},
		{"two-rate", TransientOpts{TStop: 4000 * h, H: h, FineStop: 1000 * h, TailMult: 64}, 1000, 47, 64 * h},
		{"fine region off the grid", TransientOpts{TStop: 4000 * h, H: h, FineStop: 999.5 * h, TailMult: 64}, 1000, 47, 64 * h},
		{"tail divides evenly", TransientOpts{TStop: 4000 * h, H: h, FineStop: 1440 * h, TailMult: 64}, 1440, 40, 64 * h},
		{"fine region covers TStop", TransientOpts{TStop: 1e-9, H: h, FineStop: 2e-9, TailMult: 64}, 1000, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fine, tail, hTail, err := tc.opts.grid()
			if err != nil {
				t.Fatal(err)
			}
			if fine != tc.fine || tail != tc.tail || hTail != tc.hTail {
				t.Fatalf("grid %d fine + %d tail steps of %g; want %d + %d of %g", fine, tail, hTail, tc.fine, tc.tail, tc.hTail)
			}
		})
	}
}

// TestTransientTwoRateGrid: a two-rate run must reproduce the uniform run's
// samples bit for bit up to the end of the fine region, then step by
// TailMult*H and land exactly on TStop, and still settle where the uniform
// run settles.
func TestTransientTwoRateGrid(t *testing.T) {
	builders := []struct {
		name   string
		build  func() (*Circuit, string)
		method Method
	}{
		{"linear-banded", func() (*Circuit, string) { return ladder(100) }, BackwardEuler},
		{"linear-trapezoidal", func() (*Circuit, string) { return ladder(100) }, Trapezoidal},
		{"nonlinear-dense", nonlinearCell, BackwardEuler},
	}
	const (
		h     = 10e-12
		fine  = 100
		mult  = 16
		tstop = 1000 * h
	)
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			ckt, probe := b.build()
			if err := ckt.SetMethod(b.method); err != nil {
				t.Fatal(err)
			}
			s := NewSolver(ckt)
			opts := TransientOpts{TStop: tstop, H: h, Probes: []string{probe}}
			uni, err := s.Transient(opts)
			if err != nil {
				t.Fatal(err)
			}
			uniTimes := append([]float64(nil), uni.Times...)
			uniWave := append([]float64(nil), uni.Probes[probe]...)

			opts.FineStop, opts.TailMult = fine*h, mult
			two, err := s.Transient(opts)
			if err != nil {
				t.Fatal(err)
			}
			wave := two.Probes[probe]
			for i := 0; i <= fine; i++ {
				if two.Times[i] != uniTimes[i] || wave[i] != uniWave[i] {
					t.Fatalf("sample %d: (%g s, %v V), uniform (%g s, %v V)", i, two.Times[i], wave[i], uniTimes[i], uniWave[i])
				}
			}
			if want := fine + 1 + (1000-fine+mult-1)/mult; len(two.Times) != want {
				t.Fatalf("%d samples, want %d", len(two.Times), want)
			}
			for i := fine + 1; i < len(two.Times)-1; i++ {
				if d := two.Times[i] - two.Times[i-1]; math.Abs(d-mult*h) > 1e-9*h {
					t.Fatalf("tail step %d is %g s, want %g", i-fine, d, mult*h)
				}
			}
			if last := two.Times[len(two.Times)-1]; last != tstop {
				t.Fatalf("last sample at %g s, want TStop %g", last, tstop)
			}
			if d := math.Abs(wave[len(wave)-1] - uniWave[len(uniWave)-1]); d > 1e-6 {
				t.Fatalf("final value %v V, uniform %v V", wave[len(wave)-1], uniWave[len(uniWave)-1])
			}
		})
	}
}
