package exp

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/profcache"
	"vrldram/internal/retention"
)

// fastConfig shrinks the simulation window so the trace-driven experiments
// finish quickly; ratios stay within the calibrated bands because the
// schedulers start at steady-state counter phases.
func fastConfig() Config {
	cfg := Default()
	cfg.Duration = 0.256
	return cfg
}

func TestDefaultConfigValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, d := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1.2e10} {
		bad := Default()
		bad.Duration = d
		if err := bad.Validate(); err == nil {
			t.Fatalf("duration %g must be rejected", d)
		}
	}
}

func TestRegistryAndFind(t *testing.T) {
	if len(Registry) < 10 {
		t.Fatalf("registry has %d entries", len(Registry))
	}
	ids := IDs()
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate experiment id %s", id)
		}
		seen[id] = true
		if _, err := Find(id); err != nil {
			t.Fatalf("Find(%s): %v", id, err)
		}
	}
	for _, must := range []string{"fig1a", "fig1b", "fig3a", "fig3b", "fig4", "fig5", "tab1", "tab2", "power", "sec31"} {
		if !seen[must] {
			t.Errorf("missing paper artifact %s", must)
		}
	}
	if _, err := Find("nope"); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestResultFprint(t *testing.T) {
	r := &Result{ID: "x", Title: "t", Headers: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.AddNote("n %d", 5)
	var buf bytes.Buffer
	if err := r.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: t ==", "a  bb", "1  2", "note: n 5"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func cell(t *testing.T, r *Result, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(r.Rows[row][col], "%"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, r.Rows[row][col], err)
	}
	return v
}

func TestFigure1aShape(t *testing.T) {
	r, err := Figure1a(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 21 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Monotone charge; starts at 50, ends ~100.
	prev := -1.0
	for i := range r.Rows {
		c := cell(t, r, i, 1)
		if c < prev {
			t.Fatal("charge not monotone")
		}
		prev = c
	}
	if first := cell(t, r, 0, 1); first != 50 {
		t.Fatalf("starts at %v", first)
	}
	if last := cell(t, r, len(r.Rows)-1, 1); last < 99.5 {
		t.Fatalf("ends at %v", last)
	}
}

func TestFigure1bShape(t *testing.T) {
	r, err := Figure1b(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	var minFull, minPartial = 101.0, 101.0
	for i := range r.Rows {
		if f := cell(t, r, i, 1); f < minFull {
			minFull = f
		}
		if p := cell(t, r, i, 2); p < minPartial {
			minPartial = p
		}
	}
	if minFull < 50 {
		t.Fatalf("full-refresh schedule dips to %v%%", minFull)
	}
	if minPartial >= 50 {
		t.Fatalf("back-to-back partial schedule should dip below 50%%, min %v%%", minPartial)
	}
}

func TestFigure3aShape(t *testing.T) {
	r, err := Figure3a(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 21 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	total := 0.0
	peak := 0.0
	for i := range r.Rows {
		c := cell(t, r, i, 1)
		total += c
		if c > peak {
			peak = c
		}
	}
	if total != float64(Default().Geom.Cells()) {
		t.Fatalf("histogram total %v, want %d cells", total, Default().Geom.Cells())
	}
	if peak < 20000 || peak > 50000 {
		t.Fatalf("peak %v outside the paper's 30-40k band (tolerance widened)", peak)
	}
}

func TestFigure3bExact(t *testing.T) {
	r, err := Figure3b(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{68, 101, 145, 7878}
	for i, w := range want {
		if got := cell(t, r, i, 1); got != w {
			t.Errorf("bin %d: %v rows, want %v", i, got, w)
		}
	}
}

func TestFigure4Ordering(t *testing.T) {
	r, err := Figure4(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 15 { // 14 benchmarks + average
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for i := 0; i < 14; i++ {
		raidr := cell(t, r, i, 1)
		vrl := cell(t, r, i, 2)
		va := cell(t, r, i, 3)
		if raidr != 1 {
			t.Fatalf("row %d not normalized", i)
		}
		if !(vrl < raidr) || !(va <= vrl) {
			t.Fatalf("%s: ordering violated: RAIDR=1, VRL=%v, VRLA=%v", r.Rows[i][0], vrl, va)
		}
		if viol := cell(t, r, i, 4); viol != 0 {
			t.Fatalf("%s: %v violations", r.Rows[i][0], viol)
		}
	}
	// Calibrated bands (paper: VRL 0.77, VRL-Access avg 0.66).
	vrl := cell(t, r, 14, 2)
	va := cell(t, r, 14, 3)
	if vrl < 0.70 || vrl > 0.85 {
		t.Fatalf("VRL/RAIDR = %v outside [0.70, 0.85]", vrl)
	}
	if va >= vrl || va < 0.60 {
		t.Fatalf("avg VRL-Access = %v implausible (VRL %v)", va, vrl)
	}
}

func TestFigure5ModelWins(t *testing.T) {
	r, err := Figure5(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range r.Notes {
		if strings.Contains(n, "WARNING") {
			t.Fatalf("figure 5 inverted: %s", n)
		}
	}
	if len(r.Rows) != 21 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
}

func TestTable1Structure(t *testing.T) {
	r, err := Table1(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Single-cell flat; SPICE and model grow with rows at fixed cols.
	sc0 := cell(t, r, 0, 2)
	for i := 1; i < 6; i++ {
		if cell(t, r, i, 2) != sc0 {
			t.Fatal("single-cell column must be flat")
		}
	}
	if !(cell(t, r, 4, 1) > cell(t, r, 0, 1)) {
		t.Fatal("SPICE cycles must grow with rows")
	}
	if !(cell(t, r, 4, 3) > cell(t, r, 0, 3)) {
		t.Fatal("model cycles must grow with rows")
	}
	// Model within 25% of SPICE everywhere (paper: 0-12.5%).
	for i := 0; i < 6; i++ {
		s, m := cell(t, r, i, 1), cell(t, r, i, 3)
		if diff := (m - s) / s; diff > 0.25 || diff < -0.25 {
			t.Errorf("row %d: model %v vs SPICE %v", i, m, s)
		}
	}
}

func TestTable2Exact(t *testing.T) {
	r, err := Table2(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if cell(t, r, 0, 1) != 105 || cell(t, r, 2, 1) != 200 {
		t.Fatalf("areas: %v / %v", r.Rows[0][1], r.Rows[2][1])
	}
}

func TestPowerComparison(t *testing.T) {
	r, err := PowerComparison(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	ratio := cell(t, r, 1, 5)
	if ratio < 0.82 || ratio > 0.95 {
		t.Fatalf("VRL/RAIDR power = %v, paper says ~0.88", ratio)
	}
}

func TestTauPartialSweepOptimum(t *testing.T) {
	r, err := TauPartialSweep(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Find the minimum-ratio row; the paper's operating point is 11 cycles.
	best, bestRatio := 0, 2.0
	for i := range r.Rows {
		if ratio := cell(t, r, i, 3); ratio < bestRatio {
			bestRatio = ratio
			best = int(cell(t, r, i, 0))
		}
	}
	if best < 10 || best > 12 {
		t.Fatalf("optimum tau_partial = %d cycles, paper: 11", best)
	}
}

func TestGuardbandSweepShowsSafetyEdge(t *testing.T) {
	r, err := GuardbandSweep(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Overhead decreases (or holds) as the guardband relaxes; the default
	// stays violation-free under the worst pattern.
	prev := -1.0
	for i := range r.Rows {
		ratio := cell(t, r, i, 1)
		if prev >= 0 && ratio > prev+1e-9 {
			t.Fatalf("overhead should not increase as guardband relaxes (row %d)", i)
		}
		prev = ratio
		gb := cell(t, r, i, 0)
		viol := cell(t, r, i, 2)
		if gb >= 0.86 && viol != 0 {
			t.Fatalf("guardband %v should be safe, saw %v violations", gb, viol)
		}
	}
}

func TestNBitsSweepMonotone(t *testing.T) {
	r, err := NBitsSweep(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	prevRatio, prevArea := 2.0, 0.0
	for i := range r.Rows {
		ratio, area := cell(t, r, i, 2), cell(t, r, i, 3)
		if ratio > prevRatio+1e-9 {
			t.Fatal("more counter bits must not increase overhead")
		}
		if area <= prevArea {
			t.Fatal("more counter bits must cost area")
		}
		prevRatio, prevArea = ratio, area
	}
}

func TestDecaySweep(t *testing.T) {
	r, err := DecaySweep(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Linear decay is the lenient law: weakly higher mean MPRSF.
	expMean := cell(t, r, 0, 3)
	linMean := cell(t, r, 1, 3)
	if linMean < expMean {
		t.Fatalf("linear mean MPRSF %v below exponential %v", linMean, expMean)
	}
}

func TestCoverageSweepMonotone(t *testing.T) {
	r, err := CoverageSweep(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	prev := 2.0
	for i := range r.Rows {
		ratio := cell(t, r, i, 1)
		if ratio > prev+1e-9 {
			t.Fatalf("VRL-Access must improve with coverage (row %d: %v after %v)", i, ratio, prev)
		}
		prev = ratio
	}
}

func TestVRTImpact(t *testing.T) {
	r, err := VRTImpact(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if cell(t, r, 0, 1) != 0 {
		t.Fatal("no-VRT baseline must be violation-free")
	}
	unmitigated := cell(t, r, 1, 1)
	if unmitigated == 0 {
		t.Fatal("VRT against a static profile must violate")
	}
	offline := cell(t, r, 2, 1)
	if offline >= unmitigated {
		t.Fatalf("offline mitigation did not reduce violations: %v vs %v", offline, unmitigated)
	}
	corrected := cell(t, r, 3, 2)
	if corrected == 0 {
		t.Fatal("online ECC should correct some errors")
	}
}

func TestTemperatureSweep(t *testing.T) {
	r, err := TemperatureSweep(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for i := 0; i < 3; i++ { // 45/65/85C: safe both ways
		if cell(t, r, i, 1) != 0 || cell(t, r, i, 2) != 0 {
			t.Fatalf("row %d should be violation-free at/below the profiling temperature", i)
		}
	}
	if cell(t, r, 3, 1) == 0 {
		t.Fatal("95C with a static 85C profile must lose data")
	}
	// Compensation reduces but cannot eliminate out-of-spec failures.
	if cell(t, r, 3, 2) >= cell(t, r, 3, 1) {
		t.Fatal("compensation must reduce violations at 95C")
	}
	// Cooler operation buys lower overhead.
	if cell(t, r, 0, 3) >= cell(t, r, 2, 3) {
		t.Fatal("45C compensated overhead must be below 85C")
	}
}

func TestDensitySweep(t *testing.T) {
	r, err := DensitySweep(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Overhead grows monotonically with rows for every policy.
	for col := 1; col <= 3; col++ {
		prev := -1.0
		for i := range r.Rows {
			v := cell(t, r, i, col)
			if v <= prev {
				t.Fatalf("column %d not increasing with density", col)
			}
			prev = v
		}
	}
	// Doubling rows roughly doubles JEDEC overhead.
	if ratio := cell(t, r, 1, 1) / cell(t, r, 0, 1); ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("JEDEC overhead should scale linearly, got %vx per doubling", ratio)
	}
}

func TestPerfImpactOrdering(t *testing.T) {
	r, err := PerfImpact(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 12 { // 4 benchmarks x 3 schedulers
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for b := 0; b < 4; b++ {
		raidr := cell(t, r, 3*b, 3)
		vrl := cell(t, r, 3*b+1, 3)
		va := cell(t, r, 3*b+2, 3)
		if !(raidr > 0) {
			t.Fatalf("benchmark %d: RAIDR refresh delay %v must be positive", b, raidr)
		}
		if !(vrl < raidr) || !(va <= vrl) {
			t.Fatalf("benchmark %d: refresh delay ordering violated: %v / %v / %v", b, raidr, vrl, va)
		}
	}
}

func TestWriteMarkdownReportSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is slow")
	}
	cfg := fastConfig()
	var buf bytes.Buffer
	if err := WriteMarkdownReport(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, e := range Registry {
		if !strings.Contains(out, "## "+e.ID) {
			t.Errorf("report missing section %s", e.ID)
		}
	}
}

func TestRankSweep(t *testing.T) {
	r, err := RankSweep(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	perRAIDR := cell(t, r, 0, 5)
	perVRL := cell(t, r, 1, 5)
	allRAIDR := cell(t, r, 2, 5)
	allVRL := cell(t, r, 3, 5)
	if !(perVRL < perRAIDR) {
		t.Fatal("per-bank VRL must beat RAIDR")
	}
	if !(allRAIDR > perRAIDR) {
		t.Fatal("all-bank refresh must cost more bank-busy cycles than per-bank")
	}
	// Dilution: the all-bank VRL/RAIDR ratio approaches 1.
	perRatio := perVRL / perRAIDR
	allRatio := allVRL / allRAIDR
	if allRatio <= perRatio {
		t.Fatalf("all-bank must dilute VRL: per %v vs all %v", perRatio, allRatio)
	}
	// Per-bank rank never fully blocks; all-bank always does.
	if cell(t, r, 0, 6) != 0 || cell(t, r, 2, 6) == 0 {
		t.Fatal("rank-blocked accounting wrong")
	}
}

func TestElasticSweep(t *testing.T) {
	r, err := ElasticSweep(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for i := 0; i < 4; i++ {
		if cell(t, r, i, 6) != 0 {
			t.Fatalf("row %d: violations", i)
		}
	}
	// Slack rows must postpone and not worsen latency.
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		off, on := pair[0], pair[1]
		if cell(t, r, on, 5) == 0 {
			t.Fatalf("row %d: no postponements", on)
		}
		if cell(t, r, off, 5) != 0 {
			t.Fatalf("row %d: postponed without slack", off)
		}
		if cell(t, r, on, 2) > cell(t, r, off, 2) {
			t.Fatalf("elastic refresh worsened avg latency: %v vs %v", cell(t, r, on, 2), cell(t, r, off, 2))
		}
	}
}

func TestRankPerfSweep(t *testing.T) {
	r, err := RankPerfSweep(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	perRAIDRDelay := cell(t, r, 0, 3)
	perVRLDelay := cell(t, r, 1, 3)
	allVRLDelay := cell(t, r, 3, 3)
	if perRAIDRDelay <= 0 {
		t.Fatalf("refresh must add delay: %v", perRAIDRDelay)
	}
	if perVRLDelay >= perRAIDRDelay {
		t.Fatalf("per-bank VRL delay %v should beat RAIDR %v", perVRLDelay, perRAIDRDelay)
	}
	if allVRLDelay <= perVRLDelay {
		t.Fatalf("all-bank refresh should erode VRL's latency benefit: %v vs %v", allVRLDelay, perVRLDelay)
	}
	// Busy-cycle columns: per-bank VRL < per-bank RAIDR < all-bank RAIDR.
	if !(cell(t, r, 1, 5) < cell(t, r, 0, 5) && cell(t, r, 0, 5) < cell(t, r, 2, 5)) {
		t.Fatal("busy-cycle ordering violated")
	}
}

// TestRankProfilesShared runs both rank experiments back to back on a seed
// no other test uses: between them they build their 8 bank profiles exactly
// once in profcache, and sharing the profiles across cells leaves every one
// equal to a fresh build.
func TestRankProfilesShared(t *testing.T) {
	cfg := fastConfig()
	cfg.Seed = 90017
	if _, err := profcache.PaperRestoreModel(cfg.Params, cfg.Geom); err != nil {
		t.Fatal(err)
	}
	before := profcache.Len()
	if _, err := RankSweep(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := RankPerfSweep(cfg); err != nil {
		t.Fatal(err)
	}
	if grew := profcache.Len() - before; grew != 8 {
		t.Fatalf("profcache grew by %d entries, want the 8 bank profiles", grew)
	}
	geom := device.BankGeometry{Rows: 2048, Cols: cfg.Geom.Cols}
	for b := int64(0); b < 8; b++ {
		seed := cfg.Seed + b*7919
		cached, err := profcache.SampledProfile(geom, cfg.Dist, seed)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := retention.NewSampledProfile(geom, cfg.Dist, seed)
		if err != nil {
			t.Fatal(err)
		}
		if cached.Geom != fresh.Geom || !slices.Equal(cached.True, fresh.True) || !slices.Equal(cached.Profiled, fresh.Profiled) {
			t.Errorf("bank %d: the shared profile differs from a fresh build", b)
		}
	}
	if grew := profcache.Len() - before; grew != 8 {
		t.Fatalf("profcache grew by %d entries after the lookups, want 8", grew)
	}
}

// TestVRLAccessBound tests the cause of the gap between the repo's
// VRL-Access saving and the paper's. An access resets a row's partial-refresh
// counter, so at best every refresh of a row with MPRSF > 0 is partial, while
// a row with MPRSF 0 always pays a full refresh. Over a window that spans
// whole periods, VRL-Access/RAIDR is therefore at least
//
//	sum over rows of tau/P  /  sum over rows of full/P
//
// with tau the partial latency for MPRSF > 0 and the full latency otherwise,
// for any trace. Figure 4's VRL-Access ratios must stay above that bound, and
// a trace touching every row each window must come within 0.005 of it.
func TestVRLAccessBound(t *testing.T) {
	cfg := Default() // the paper's 0.768 s window
	f, err := newFig4Setup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raidr, err := core.NewRAIDR(f.profile, f.schedConfig())
	if err != nil {
		t.Fatal(err)
	}
	vrl, err := core.NewVRLAccess(f.profile, f.schedConfig())
	if err != nil {
		t.Fatal(err)
	}
	var best, full float64
	for row := 0; row < f.profile.Geom.Rows; row++ {
		tau := f.rm.FullCycles
		if vrl.MPRSF(row) > 0 {
			tau = f.rm.PartialCycles
		}
		best += float64(tau) / vrl.Period(row)
		full += float64(f.rm.FullCycles) / raidr.Period(row)
	}
	bound := best / full
	t.Logf("VRL-Access/RAIDR bound %.4f (partial %d, full %d cycles)", bound, f.rm.PartialCycles, f.rm.FullCycles)

	// Ratios are printed to three decimals, so each may sit half a unit
	// below its exact value.
	const half = 0.0005
	fig4, err := Figure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range fig4.Rows {
		if v := cell(t, fig4, i, 3); v < bound-half {
			t.Errorf("fig4 %s: VRL-Access/RAIDR %v below the bound %.4f", row[0], v, bound)
		}
	}
	cov, err := CoverageSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := len(cov.Rows) - 1
	if cov.Rows[last][0] != "100%" {
		t.Fatalf("last coverage row is %s, want 100%%", cov.Rows[last][0])
	}
	if v := cell(t, cov, last, 1); math.Abs(v-bound) > 0.005 {
		t.Errorf("abl-coverage at 100%%: VRL-Access/RAIDR %v, more than 0.005 from the bound %.4f", v, bound)
	}
}

func TestSenseMarginSweep(t *testing.T) {
	r, err := SenseMarginSweep(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for i := range r.Rows {
		ideal := cell(t, r, i, 1)
		uniform := cell(t, r, i, 2)
		alt := cell(t, r, i, 3)
		rnd := cell(t, r, i, 4)
		if !(alt < ideal && rnd < ideal && uniform < ideal) {
			t.Fatalf("row %d: every coupled pattern must sit below the coupling-free ideal", i)
		}
		if !(uniform > alt && uniform > rnd) {
			t.Fatalf("row %d: anti-correlated patterns must be worse than uniform", i)
		}
		att := cell(t, r, i, 5)
		if att <= 0 || att > 1 {
			t.Fatalf("row %d: attenuation %v outside (0,1]", i, att)
		}
		// The reported attenuation is the worst pattern's margin.
		worst := alt
		if rnd < worst {
			worst = rnd
		}
		if got := worst / ideal; got < att-0.01 || got > att+0.01 {
			t.Fatalf("row %d: attenuation %v inconsistent with worst/ideal %v", i, att, got)
		}
	}
}

func TestSALPSweep(t *testing.T) {
	r, err := SALPSweep(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Latency and refresh stalls fall monotonically as subarrays increase.
	prevLat, prevStall := 1e18, 1e18
	for i := 0; i < 6; i += 2 {
		lat := cell(t, r, i, 2)
		stall := cell(t, r, i, 4)
		if lat >= prevLat || stall > prevStall {
			t.Fatalf("SALP should monotonically reduce latency and refresh stalls (row %d)", i)
		}
		prevLat, prevStall = lat, stall
		if cell(t, r, i, 5) != 0 || cell(t, r, i+1, 5) != 0 {
			t.Fatalf("violations at row %d", i)
		}
	}
}
