package core

import (
	"math"
	"testing"
	"testing/quick"

	"vrldram/internal/device"
	"vrldram/internal/retention"
)

func paperRM(t *testing.T) RestoreModel {
	t.Helper()
	rm, err := PaperRestoreModel(device.Default90nm(), device.PaperBank)
	if err != nil {
		t.Fatal(err)
	}
	return rm
}

func TestRestoreModelValidate(t *testing.T) {
	good := RestoreModel{PartialCycles: 11, FullCycles: 19, AlphaPartial: 0.9, AlphaFull: 0.999}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []RestoreModel{
		{PartialCycles: 0, FullCycles: 19, AlphaPartial: 0.9, AlphaFull: 1},
		{PartialCycles: 20, FullCycles: 19, AlphaPartial: 0.9, AlphaFull: 1},
		{PartialCycles: 11, FullCycles: 19, AlphaPartial: 0, AlphaFull: 1},
		{PartialCycles: 11, FullCycles: 19, AlphaPartial: 0.9, AlphaFull: 0.5},
	}
	for i, rm := range bad {
		if err := rm.Validate(); err == nil {
			t.Errorf("bad model %d not caught", i)
		}
	}
}

func TestPaperRestoreModel(t *testing.T) {
	rm := paperRM(t)
	if rm.PartialCycles != 11 || rm.FullCycles != 19 {
		t.Fatalf("latencies %d/%d, want 11/19", rm.PartialCycles, rm.FullCycles)
	}
	if rm.AlphaPartial < 0.85 || rm.AlphaPartial > 0.95 {
		t.Fatalf("partial alpha %v outside the calibrated band", rm.AlphaPartial)
	}
	if rm.AlphaFull < 0.999 {
		t.Fatalf("full alpha %v", rm.AlphaFull)
	}
}

func TestRestoreModelForSweep(t *testing.T) {
	p := device.Default90nm()
	prev := -1.0
	for tp := 8; tp <= 18; tp++ {
		rm, err := RestoreModelFor(p, device.PaperBank, tp)
		if err != nil {
			t.Fatalf("tau=%d: %v", tp, err)
		}
		if rm.PartialCycles != tp {
			t.Fatalf("tau=%d: got %d", tp, rm.PartialCycles)
		}
		if rm.AlphaPartial < prev {
			t.Fatalf("alpha must be monotone in the partial window (tau=%d)", tp)
		}
		prev = rm.AlphaPartial
	}
	// A too-short window restores essentially nothing.
	rm, err := RestoreModelFor(p, device.PaperBank, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rm.AlphaPartial > 0.2 {
		t.Fatalf("8-cycle partial should restore almost nothing, alpha=%v", rm.AlphaPartial)
	}
}

// --- MPRSF ------------------------------------------------------------------

func TestComputeMPRSFBoundaries(t *testing.T) {
	rm := paperRM(t)
	decay := retention.ExpDecay{}
	// Retention exactly at the period: the first partial's follow-up sensing
	// dips below any guardband above 0.5.
	if m := ComputeMPRSF(0.256, 0.256, rm, decay, 0.86, 3); m != 0 {
		t.Fatalf("tret = period: MPRSF = %d, want 0", m)
	}
	// Huge slack: capped at the counter range.
	if m := ComputeMPRSF(100, 0.256, rm, decay, 0.86, 3); m != 3 {
		t.Fatalf("huge slack: MPRSF = %d, want cap 3", m)
	}
	if m := ComputeMPRSF(100, 0.256, rm, decay, 0.86, 7); m != 7 {
		t.Fatalf("nbits=3 cap: MPRSF = %d, want 7", m)
	}
	// Degenerate inputs.
	if ComputeMPRSF(0, 0.256, rm, decay, 0.86, 3) != 0 {
		t.Fatal("zero retention must give 0")
	}
	if ComputeMPRSF(1, 0, rm, decay, 0.86, 3) != 0 {
		t.Fatal("zero period must give 0")
	}
	if ComputeMPRSF(1, 0.256, rm, decay, 0.86, 0) != 0 {
		t.Fatal("zero cap must give 0")
	}
}

// Property: MPRSF is monotone non-decreasing in retention time.
func TestMPRSFMonotoneInRetention(t *testing.T) {
	rm := paperRM(t)
	decay := retention.ExpDecay{}
	f := func(a, b float64) bool {
		t1 := 0.26 + math.Mod(math.Abs(a), 4)
		t2 := 0.26 + math.Mod(math.Abs(b), 4)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		m1 := ComputeMPRSF(t1, 0.256, rm, decay, 0.86, 3)
		m2 := ComputeMPRSF(t2, 0.256, rm, decay, 0.86, 3)
		return m1 <= m2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: MPRSF is monotone non-increasing in the guardband.
func TestMPRSFMonotoneInGuardband(t *testing.T) {
	rm := paperRM(t)
	decay := retention.ExpDecay{}
	f := func(raw float64) bool {
		tret := 0.3 + math.Mod(math.Abs(raw), 3)
		prev := 1 << 30
		for _, gb := range []float64{0.55, 0.65, 0.75, 0.85, 0.95} {
			m := ComputeMPRSF(tret, 0.256, rm, decay, gb, 3)
			if m > prev {
				return false
			}
			prev = m
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property (soundness): simulating the schedule ComputeMPRSF returns never
// senses below the guardband, and one more partial would.
func TestMPRSFSoundAndTight(t *testing.T) {
	rm := paperRM(t)
	decay := retention.ExpDecay{}
	const gb = 0.86
	simulate := func(tret float64, partials int) bool {
		// true if every sensing of [partials x partial, then full] >= gb.
		d := decay.Factor(0.256, tret)
		v := 1.0
		for k := 0; k < partials+1; k++ {
			sensed := v * d
			if sensed < gb {
				return false
			}
			if k < partials {
				v = sensed + (1-sensed)*rm.AlphaPartial
			}
		}
		return true
	}
	f := func(raw float64) bool {
		tret := 0.26 + math.Mod(math.Abs(raw), 4)
		m := ComputeMPRSF(tret, 0.256, rm, decay, gb, 3)
		if !simulate(tret, m) && m > 0 {
			return false // unsound
		}
		if m < 3 && simulate(tret, m+1) {
			return false // not tight
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// --- Config -------------------------------------------------------------------

func TestConfigDefaultsAndValidation(t *testing.T) {
	rm := paperRM(t)
	c := Config{Restore: rm}.withDefaults()
	if c.Guardband != ChargeGuardband || c.NBits != 2 || c.Decay == nil || c.Bins == nil {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if c.MaxPartials() != 3 {
		t.Fatalf("nbits=2 cap = %d, want 3", c.MaxPartials())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, g := range []float64{0.3, 1, math.NaN(), math.Inf(1)} {
		bad := c
		bad.Guardband = g
		if err := bad.Validate(); err == nil {
			t.Fatalf("guardband %g outside [SenseLimit, 1) must be rejected", g)
		}
	}
	bad := c
	bad.NBits = 40
	if err := bad.Validate(); err == nil {
		t.Fatal("absurd nbits must be rejected")
	}
}

// --- Schedulers ------------------------------------------------------------------

func testProfile(t *testing.T) *retention.BankProfile {
	t.Helper()
	p, err := retention.NewPaperProfile(retention.DefaultCellDistribution(), 42)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestJEDECAlwaysFull(t *testing.T) {
	rm := paperRM(t)
	s, err := NewJEDEC(0.064, rm)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "JEDEC" || s.Period(123) != 0.064 || s.MPRSF(0) != 0 {
		t.Fatal("JEDEC basics wrong")
	}
	for i := 0; i < 10; i++ {
		op := s.RefreshOp(5, float64(i)*0.064)
		if !op.Full || op.Cycles != rm.FullCycles {
			t.Fatal("JEDEC must always issue full refreshes")
		}
	}
	if _, err := NewJEDEC(0, rm); err == nil {
		t.Fatal("zero period must be rejected")
	}
}

func TestRAIDRBinsPeriods(t *testing.T) {
	prof := testProfile(t)
	rm := paperRM(t)
	s, err := NewRAIDR(prof, Config{Restore: rm})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "RAIDR" {
		t.Fatal("name")
	}
	seen := map[float64]int{}
	for r := 0; r < prof.Geom.Rows; r++ {
		seen[s.Period(r)]++
		if op := s.RefreshOp(r, 0); !op.Full {
			t.Fatal("RAIDR must always issue full refreshes")
		}
	}
	if seen[0.064] != 68 || seen[0.256] != 7878 {
		t.Fatalf("period assignment does not match Figure 3b: %v", seen)
	}
}

func TestVRLAlgorithm1Pattern(t *testing.T) {
	prof := testProfile(t)
	rm := paperRM(t)
	s, err := NewVRL(prof, Config{Restore: rm})
	if err != nil {
		t.Fatal(err)
	}
	// Pick a row with MPRSF = 3 and check the 1-full-per-4-refreshes cycle.
	row := -1
	for r := 0; r < prof.Geom.Rows; r++ {
		if s.MPRSF(r) == 3 {
			row = r
			break
		}
	}
	if row < 0 {
		t.Fatal("no row with MPRSF = 3")
	}
	fulls := 0
	for i := 0; i < 40; i++ {
		if s.RefreshOp(row, 0).Full {
			fulls++
		}
	}
	if fulls != 10 {
		t.Fatalf("40 refreshes of an MPRSF=3 row: %d fulls, want 10", fulls)
	}
	// A row with MPRSF = 0 always refreshes fully.
	row0 := -1
	for r := 0; r < prof.Geom.Rows; r++ {
		if s.MPRSF(r) == 0 {
			row0 = r
			break
		}
	}
	if row0 < 0 {
		t.Fatal("no row with MPRSF = 0")
	}
	for i := 0; i < 8; i++ {
		if !s.RefreshOp(row0, 0).Full {
			t.Fatal("MPRSF=0 row must always get full refreshes")
		}
	}
	// Plain VRL ignores accesses.
	before := s.RefreshOp(row, 0)
	s.OnAccess(row, 0)
	_ = before
}

func TestVRLAccessResetsCounter(t *testing.T) {
	prof := testProfile(t)
	rm := paperRM(t)
	s, err := NewVRLAccess(prof, Config{Restore: rm})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "VRL-Access" {
		t.Fatal("name")
	}
	row := -1
	for r := 0; r < prof.Geom.Rows; r++ {
		if s.MPRSF(r) == 3 {
			row = r
			break
		}
	}
	if row < 0 {
		t.Fatal("no row with MPRSF = 3")
	}
	// With an access before every refresh, no full refresh is ever due.
	for i := 0; i < 20; i++ {
		s.OnAccess(row, float64(i))
		if op := s.RefreshOp(row, float64(i)); op.Full {
			t.Fatal("covered row must only receive partial refreshes")
		}
	}
}

func TestVRLSteadyStatePhases(t *testing.T) {
	// Counters must start spread across [0, mprsf], not all at zero: a
	// finite window then sees steady-state behaviour.
	prof := testProfile(t)
	rm := paperRM(t)
	s, err := NewVRL(prof, Config{Restore: rm})
	if err != nil {
		t.Fatal(err)
	}
	v := s.(*vrl)
	seen := map[int]bool{}
	for r := 0; r < prof.Geom.Rows; r++ {
		if v.mprsf[r] == 3 {
			seen[v.rcount[r]] = true
		}
		if v.rcount[r] < 0 || v.rcount[r] > v.mprsf[r] {
			t.Fatalf("row %d: rcount %d outside [0,%d]", r, v.rcount[r], v.mprsf[r])
		}
	}
	for phase := 0; phase <= 3; phase++ {
		if !seen[phase] {
			t.Fatalf("no MPRSF=3 row starts at phase %d", phase)
		}
	}
}

func TestMPRSFHistogram(t *testing.T) {
	prof := testProfile(t)
	rm := paperRM(t)
	s, err := NewVRL(prof, Config{Restore: rm})
	if err != nil {
		t.Fatal(err)
	}
	h := MPRSFHistogram(s, prof.Geom.Rows)
	total := 0
	for _, c := range h {
		total += c
	}
	if total != prof.Geom.Rows {
		t.Fatalf("histogram sums to %d, want %d", total, prof.Geom.Rows)
	}
	if len(h) != 4 {
		t.Fatalf("histogram length %d, want 4 (nbits=2)", len(h))
	}
	if h[0] == 0 || h[3] == 0 {
		t.Fatalf("calibrated profile should populate both ends: %v", h)
	}
}

func TestSchedulerConstructorErrors(t *testing.T) {
	prof := testProfile(t)
	bad := Config{Restore: RestoreModel{}}
	if _, err := NewRAIDR(prof, bad); err == nil {
		t.Fatal("invalid restore model must be rejected")
	}
	if _, err := NewVRL(prof, bad); err == nil {
		t.Fatal("invalid restore model must be rejected")
	}
	if _, err := NewVRLAccess(prof, bad); err == nil {
		t.Fatal("invalid restore model must be rejected")
	}
}

func TestUpgradeRows(t *testing.T) {
	prof := testProfile(t)
	up := UpgradeRows(prof, []int{0, 5, 99999, -3}, retention.RAIDRBins[0])
	if up.Profiled[0] != retention.RAIDRBins[0] || up.Profiled[5] != retention.RAIDRBins[0] {
		t.Fatal("named rows not upgraded")
	}
	if up.Profiled[1] != prof.Profiled[1] {
		t.Fatal("other rows must be untouched")
	}
	if prof.Profiled[0] == retention.RAIDRBins[0] && prof.Profiled[5] == retention.RAIDRBins[0] {
		t.Skip("profile coincidentally already at the lowest bin")
	}
	// The original profile is not mutated.
	if &up.Profiled[0] == &prof.Profiled[0] {
		t.Fatal("UpgradeRows must copy the profiled slice")
	}
	// Upgraded rows get MPRSF 0 and the fastest period.
	rm := paperRM(t)
	s, err := NewVRL(up, Config{Restore: rm})
	if err != nil {
		t.Fatal(err)
	}
	if s.MPRSF(0) != 0 || s.Period(0) != retention.RAIDRBins[0] {
		t.Fatalf("upgraded row: mprsf=%d period=%v", s.MPRSF(0), s.Period(0))
	}
}
