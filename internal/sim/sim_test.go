package sim

import (
	"math"
	"testing"

	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/retention"
	"vrldram/internal/trace"
)

type fixture struct {
	params  device.Params
	profile *retention.BankProfile
	rm      core.RestoreModel
	opts    Options
}

func setup(t *testing.T) *fixture {
	t.Helper()
	p := device.Default90nm()
	prof, err := retention.NewPaperProfile(retention.DefaultCellDistribution(), 42)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := core.PaperRestoreModel(p, device.PaperBank)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		params:  p,
		profile: prof,
		rm:      rm,
		opts:    Options{Duration: 0.768, TCK: p.TCK},
	}
}

func (f *fixture) bank(t *testing.T, pat retention.Pattern) *dram.Bank {
	t.Helper()
	b, err := dram.NewBank(f.profile, retention.ExpDecay{}, pat)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRAIDRRefreshAccounting(t *testing.T) {
	f := setup(t)
	sched, err := core.NewRAIDR(f.profile, core.Config{Restore: f.rm})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(f.bank(t, retention.PatternAllZeros), sched, nil, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	// Expected refreshes over 768 ms: 68 rows x 12 + 101 x 6 + 145 x 4 +
	// 7878 x 3 = 25636, all full, 19 cycles each.
	const wantRefreshes = 68*12 + 101*6 + 145*4 + 7878*3
	if st.FullRefreshes != wantRefreshes {
		t.Fatalf("fulls = %d, want %d", st.FullRefreshes, wantRefreshes)
	}
	if st.PartialRefreshes != 0 {
		t.Fatal("RAIDR must not issue partial refreshes")
	}
	if st.BusyCycles != wantRefreshes*19 {
		t.Fatalf("busy = %d, want %d", st.BusyCycles, wantRefreshes*19)
	}
	if st.Violations != 0 {
		t.Fatalf("violations = %d", st.Violations)
	}
	if st.Refreshes() != wantRefreshes {
		t.Fatal("Refreshes() inconsistent")
	}
	ovh := st.OverheadFraction(f.params.TCK)
	if ovh <= 0 || ovh > 0.01 {
		t.Fatalf("overhead fraction %v implausible", ovh)
	}
}

func TestVRLBeatsRAIDRSafely(t *testing.T) {
	f := setup(t)
	cfg := core.Config{Restore: f.rm}
	raidrS, err := core.NewRAIDR(f.profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	raidr, err := Run(f.bank(t, retention.PatternAllZeros), raidrS, nil, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	vrlS, err := core.NewVRL(f.profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vrl, err := Run(f.bank(t, retention.PatternAllZeros), vrlS, nil, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	if vrl.BusyCycles >= raidr.BusyCycles {
		t.Fatalf("VRL (%d) must beat RAIDR (%d)", vrl.BusyCycles, raidr.BusyCycles)
	}
	ratio := float64(vrl.BusyCycles) / float64(raidr.BusyCycles)
	if ratio < 0.70 || ratio > 0.85 {
		t.Fatalf("VRL/RAIDR = %v, calibrated band is [0.70, 0.85] (paper: 0.77)", ratio)
	}
	if vrl.Violations != 0 {
		t.Fatalf("VRL caused %d violations", vrl.Violations)
	}
	if vrl.PartialRefreshes == 0 {
		t.Fatal("VRL issued no partial refreshes")
	}
	// Refresh counts match: same schedule, different op mix.
	if vrl.Refreshes() != raidr.Refreshes() {
		t.Fatalf("op counts differ: %d vs %d", vrl.Refreshes(), raidr.Refreshes())
	}
}

func TestVRLSafeUnderWorstPattern(t *testing.T) {
	// The guardband must cover the worst-case stored pattern.
	f := setup(t)
	sched, err := core.NewVRL(f.profile, core.Config{Restore: f.rm})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(f.bank(t, retention.PatternAlternating), sched, nil, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Violations != 0 {
		t.Fatalf("worst-pattern violations = %d", st.Violations)
	}
}

func TestUnderatedProfileInjectsFailures(t *testing.T) {
	// Failure injection: a controller that consumes raw (un-derated)
	// retention values and schedules at the bare sensing limit loses data
	// under the worst-case stored pattern - proving the bank model actually
	// polices integrity. (With the profiler's worst-pattern derating in
	// place, the same configuration is safe: see TestVRLSafeUnderWorstPattern.)
	f := setup(t)
	unsafe := &retention.BankProfile{
		Geom:     f.profile.Geom,
		True:     f.profile.True,
		Profiled: f.profile.True, // misuse: no derating applied
	}
	sched, err := core.NewVRL(unsafe, core.Config{Restore: f.rm, Guardband: retention.SenseLimit})
	if err != nil {
		t.Fatal(err)
	}
	bank, err := dram.NewBank(unsafe, retention.ExpDecay{}, retention.PatternAlternating)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(bank, sched, nil, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Violations == 0 {
		t.Fatal("un-derated scheduling under the worst pattern should violate integrity")
	}
}

func TestVRLAccessUsesTrace(t *testing.T) {
	f := setup(t)
	cfg := core.Config{Restore: f.rm}
	spec, err := trace.FindBenchmark("bgsave")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := spec.Generate(f.profile.Geom.Rows, f.opts.Duration, 7)
	if err != nil {
		t.Fatal(err)
	}

	vrlS, err := core.NewVRL(f.profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vrl, err := Run(f.bank(t, retention.PatternAllZeros), vrlS, nil, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	vaS, err := core.NewVRLAccess(f.profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	va, err := Run(f.bank(t, retention.PatternAllZeros), vaS, trace.NewSliceSource(recs), f.opts)
	if err != nil {
		t.Fatal(err)
	}
	if va.Accesses != int64(len(recs)) {
		t.Fatalf("replayed %d accesses, want %d", va.Accesses, len(recs))
	}
	if va.BusyCycles >= vrl.BusyCycles {
		t.Fatalf("VRL-Access (%d) must beat VRL (%d) on a high-coverage trace", va.BusyCycles, vrl.BusyCycles)
	}
	if va.Violations != 0 {
		t.Fatalf("violations = %d", va.Violations)
	}
}

func TestJEDECOverheadDwarfsRAIDR(t *testing.T) {
	f := setup(t)
	jed, err := core.NewJEDEC(f.params.TRetNom, f.rm)
	if err != nil {
		t.Fatal(err)
	}
	jst, err := Run(f.bank(t, retention.PatternAllZeros), jed, nil, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	raidrS, err := core.NewRAIDR(f.profile, core.Config{Restore: f.rm})
	if err != nil {
		t.Fatal(err)
	}
	rst, err := Run(f.bank(t, retention.PatternAllZeros), raidrS, nil, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	if jst.BusyCycles <= 3*rst.BusyCycles {
		t.Fatalf("JEDEC (%d) should far exceed RAIDR (%d)", jst.BusyCycles, rst.BusyCycles)
	}
	if jst.Violations != 0 {
		t.Fatal("JEDEC must be safe")
	}
}

func TestRunOptionValidation(t *testing.T) {
	f := setup(t)
	sched, err := core.NewRAIDR(f.profile, core.Config{Restore: f.rm})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(f.bank(t, retention.PatternAllZeros), sched, nil, Options{Duration: 0, TCK: 1}); err == nil {
		t.Fatal("zero duration must be rejected")
	}
	if _, err := Run(f.bank(t, retention.PatternAllZeros), sched, nil, Options{Duration: 1, TCK: 0}); err == nil {
		t.Fatal("zero TCK must be rejected")
	}
	if _, err := Run(f.bank(t, retention.PatternAllZeros), sched, nil, Options{Duration: -0.1, TCK: 1}); err == nil {
		t.Fatal("negative duration must be rejected")
	}
	if _, err := Run(f.bank(t, retention.PatternAllZeros), sched, nil, Options{Duration: 1, TCK: -1e-9}); err == nil {
		t.Fatal("negative TCK must be rejected")
	}
	opts := Options{Duration: 1, TCK: 1e-9, CheckpointEvery: -0.5}
	if _, err := Run(f.bank(t, retention.PatternAllZeros), sched, nil, opts); err == nil {
		t.Fatal("negative CheckpointEvery must be rejected")
	}
	opts = Options{Duration: 1, TCK: 1e-9, CheckpointEvery: 0.5} // no sink
	if _, err := Run(f.bank(t, retention.PatternAllZeros), sched, nil, opts); err == nil {
		t.Fatal("CheckpointEvery without a CheckpointSink must be rejected")
	}
	// Non-finite values pass every sign check; the tick clock also bounds
	// durations to the int64 range (about 365 years).
	sink := func(*Checkpoint) error { return nil }
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"duration-nan", Options{Duration: math.NaN(), TCK: 1e-9}},
		{"duration-inf", Options{Duration: math.Inf(1), TCK: 1e-9}},
		{"duration-past-ticks", Options{Duration: 1.2e10, TCK: 1e-9}},
		{"tck-nan", Options{Duration: 1, TCK: math.NaN()}},
		{"tck-inf", Options{Duration: 1, TCK: math.Inf(1)}},
		{"checkpoint-nan", Options{Duration: 1, TCK: 1e-9, CheckpointEvery: math.NaN(), CheckpointSink: sink}},
		{"checkpoint-inf", Options{Duration: 1, TCK: 1e-9, CheckpointEvery: math.Inf(1), CheckpointSink: sink}},
		{"checkpoint-under-a-tick", Options{Duration: 1, TCK: 1e-9, CheckpointEvery: 1e-12, CheckpointSink: sink}},
	} {
		if _, err := Run(f.bank(t, retention.PatternAllZeros), sched, nil, c.opts); err == nil {
			t.Errorf("%s: options accepted", c.name)
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	f := setup(t)
	run := func() Stats {
		sched, err := core.NewVRL(f.profile, core.Config{Restore: f.rm})
		if err != nil {
			t.Fatal(err)
		}
		st, err := Run(f.bank(t, retention.PatternAllZeros), sched, nil, f.opts)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic simulation: %+v vs %+v", a, b)
	}
}

func TestTraceRecordsOutsideWindowIgnored(t *testing.T) {
	f := setup(t)
	sched, err := core.NewVRLAccess(f.profile, core.Config{Restore: f.rm})
	if err != nil {
		t.Fatal(err)
	}
	recs := []trace.Record{
		{Time: 0.1, Op: trace.Read, Row: 5},
		{Time: 5.0, Op: trace.Read, Row: 6}, // beyond the window
	}
	st, err := Run(f.bank(t, retention.PatternAllZeros), sched, trace.NewSliceSource(recs), f.opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses != 1 {
		t.Fatalf("accesses = %d, want 1", st.Accesses)
	}
}

func TestOutOfRangeRowsSkipped(t *testing.T) {
	f := setup(t)
	sched, err := core.NewVRLAccess(f.profile, core.Config{Restore: f.rm})
	if err != nil {
		t.Fatal(err)
	}
	recs := []trace.Record{{Time: 0.1, Op: trace.Read, Row: 1 << 30}}
	st, err := Run(f.bank(t, retention.PatternAllZeros), sched, trace.NewSliceSource(recs), f.opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses != 0 {
		t.Fatal("out-of-range row must be skipped, not counted")
	}
}
