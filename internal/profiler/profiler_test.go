package profiler

import (
	"math"
	"testing"

	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/retention"
	"vrldram/internal/sim"
)

func chip(t *testing.T, rows int, seed int64) *retention.BankProfile {
	t.Helper()
	p, err := retention.NewSampledProfile(device.BankGeometry{Rows: rows, Cols: 32},
		retention.DefaultCellDistribution(), seed)
	if err != nil {
		t.Fatal(err)
	}
	p.Profiled = append([]float64(nil), p.True...) // profiling must not peek
	return p
}

func TestOptionsValidation(t *testing.T) {
	if err := (Options{}).withDefaults().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Options{
		{Intervals: []float64{0.1, 0.1}, Patterns: retention.Patterns, Margin: 0.9},
		{Intervals: []float64{0.2, 0.1}, Patterns: retention.Patterns, Margin: 0.9},
		{Intervals: []float64{0.1}, Patterns: []retention.Pattern{}, Margin: 0.9},
		{Intervals: []float64{0.1}, Patterns: retention.Patterns, Margin: 1.5},
		// Non-finite values pass plain sign and order checks.
		{Intervals: []float64{0.1}, Patterns: retention.Patterns, Margin: math.NaN()},
		{Intervals: []float64{0.1}, Patterns: retention.Patterns, Margin: math.Inf(1)},
		{Intervals: []float64{math.NaN()}, Patterns: retention.Patterns, Margin: 0.9},
		{Intervals: []float64{0.1, math.NaN()}, Patterns: retention.Patterns, Margin: 0.9},
		{Intervals: []float64{0.1, math.Inf(1)}, Patterns: retention.Patterns, Margin: 0.9},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad options %d not caught", i)
		}
	}
}

func TestProfileIsConservative(t *testing.T) {
	c := chip(t, 512, 11)
	res, err := Profile(c, retention.ExpDecay{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bad := VerifyConservative(res); bad != 0 {
		t.Fatalf("%d rows overestimated: the profiler is unsound", bad)
	}
	if res.Rounds != len(Options{}.withDefaults().Intervals)*len(retention.Patterns) {
		t.Fatalf("rounds = %d", res.Rounds)
	}
}

func TestProfileQuantizesToIntervals(t *testing.T) {
	c := chip(t, 256, 5)
	opts := Options{}.withDefaults()
	res, err := Profile(c, retention.ExpDecay{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	valid := map[float64]bool{}
	for _, iv := range opts.Intervals {
		valid[iv] = true
	}
	for r, v := range res.Profile.Profiled {
		if !valid[v] {
			t.Fatalf("row %d measured %v, not a tested interval", r, v)
		}
	}
}

func TestProfileMatchesKnownRetention(t *testing.T) {
	// A hand-built chip with exact retention values: the profiler must
	// classify each row at the largest interval whose margin-extended wait
	// the worst pattern survives.
	geom := device.BankGeometry{Rows: 4, Cols: 1}
	c := &retention.BankProfile{
		Geom: geom,
		True: []float64{0.100, 0.200, 0.400, 3.0},
	}
	c.Profiled = append([]float64(nil), c.True...)
	opts := Options{
		Intervals: []float64{0.064, 0.128, 0.192, 0.256},
		Patterns:  []retention.Pattern{retention.PatternAlternating},
		Margin:    0.95,
	}
	res, err := Profile(c, retention.ExpDecay{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	derate := retention.PatternFactor(retention.PatternAlternating) * 0.95 // 0.8075
	for r, measured := range res.Profile.Profiled {
		effective := c.True[r] * derate
		// Largest interval <= effective.
		want := 0.0
		for _, iv := range opts.Intervals {
			if iv <= effective {
				want = iv
			}
		}
		if measured != want {
			t.Errorf("row %d (true %v): measured %v, want %v", r, c.True[r], measured, want)
		}
	}
}

func TestProfileRejectsUnusableChip(t *testing.T) {
	geom := device.BankGeometry{Rows: 1, Cols: 1}
	c := &retention.BankProfile{Geom: geom, True: []float64{0.010}, Profiled: []float64{0.010}}
	if _, err := Profile(c, retention.ExpDecay{}, Options{}); err == nil {
		t.Fatal("a row below the smallest interval must fail the campaign")
	}
}

func TestProfileErrors(t *testing.T) {
	if _, err := Profile(nil, retention.ExpDecay{}, Options{}); err == nil {
		t.Fatal("nil chip must be rejected")
	}
	c := chip(t, 8, 1)
	if _, err := Profile(c, nil, Options{Margin: 2}); err == nil {
		t.Fatal("bad margin must be rejected")
	}
}

func TestDefaultCampaign(t *testing.T) {
	res, err := DefaultCampaign(device.BankGeometry{Rows: 256, Cols: 32}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profile.Profiled) != 256 {
		t.Fatalf("profile size %d", len(res.Profile.Profiled))
	}
	if VerifyConservative(res) != 0 {
		t.Fatal("default campaign unsound")
	}
}

// End-to-end: a measured profile drives VRL safely - the closed loop the
// paper assumes.
func TestMeasuredProfileDrivesVRLSafely(t *testing.T) {
	c := chip(t, 1024, 3)
	res, err := Profile(c, retention.ExpDecay{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := device.Default90nm()
	rm, err := core.PaperRestoreModel(p, device.PaperBank)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.NewVRL(res.Profile, core.Config{Restore: rm})
	if err != nil {
		t.Fatal(err)
	}
	// The real bank stores the worst-case pattern.
	bank, err := dram.NewBank(res.Profile, retention.ExpDecay{}, retention.PatternAlternating)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(bank, sched, nil, sim.Options{Duration: 0.768, TCK: p.TCK})
	if err != nil {
		t.Fatal(err)
	}
	if st.Violations != 0 {
		t.Fatalf("measured profile led to %d violations", st.Violations)
	}
	if st.PartialRefreshes == 0 {
		t.Fatal("measured profile should still admit partial refreshes")
	}
}
