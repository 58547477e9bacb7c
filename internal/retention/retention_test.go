package retention

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vrldram/internal/device"
)

func TestPatternNamesAndFactors(t *testing.T) {
	for _, p := range Patterns {
		f := PatternFactor(p)
		if f <= 0 || f > 1 {
			t.Errorf("%s: factor %v outside (0,1]", p, f)
		}
		if p.String() == "" {
			t.Errorf("pattern %d has no name", p)
		}
	}
	if PatternFactor(PatternAllZeros) != 1 {
		t.Fatal("all-zeros must be the benign reference pattern")
	}
	if w := WorstPatternFactor(); w != PatternFactor(PatternAlternating) {
		t.Fatalf("worst pattern factor %v, want the alternating pattern's", w)
	}
	if Pattern(99).String() == "" {
		t.Fatal("unknown pattern must still stringify")
	}
}

func TestDistributionValidate(t *testing.T) {
	if err := DefaultCellDistribution().Validate(); err != nil {
		t.Fatalf("default distribution invalid: %v", err)
	}
	bad := []func(*CellDistribution){
		func(d *CellDistribution) { d.BulkMedian = 0 },
		func(d *CellDistribution) { d.BulkSigma = -1 },
		func(d *CellDistribution) { d.BulkFloor = 0 },
		func(d *CellDistribution) { d.WeakProb = 2 },
		func(d *CellDistribution) { d.WeakMin = 0 },
		func(d *CellDistribution) { d.WeakMax = d.WeakMin },
		func(d *CellDistribution) { d.WeakShape = 0 },
		func(d *CellDistribution) { d.Max = 0.001 },
	}
	for i, mut := range bad {
		d := DefaultCellDistribution()
		mut(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestSampleCellRange(t *testing.T) {
	d := DefaultCellDistribution()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		v := d.SampleCell(rng)
		if v < d.WeakMin || v > d.Max {
			t.Fatalf("sample %v outside [%v,%v]", v, d.WeakMin, d.Max)
		}
	}
}

func TestSampleRowIsWeakest(t *testing.T) {
	// Statistically, a row of many cells must be weaker than a single cell.
	d := DefaultCellDistribution()
	rng := rand.New(rand.NewSource(2))
	var sumCell, sumRow float64
	const n = 3000
	for i := 0; i < n; i++ {
		sumCell += d.SampleCell(rng)
		sumRow += d.SampleRow(rng, 32)
	}
	if sumRow >= sumCell {
		t.Fatalf("mean row retention %v not below mean cell retention %v", sumRow/n, sumCell/n)
	}
	if d.SampleRow(rng, 0) <= 0 {
		t.Fatal("degenerate cols must still sample")
	}
}

func TestWeakCellFractionCalibration(t *testing.T) {
	// The weak tail drives Figure 3b: P(cell < 256ms) must be ~1.2e-3 so an
	// 8192x32 bank lands ~314 rows below the 256 ms bin.
	d := DefaultCellDistribution()
	rng := rand.New(rand.NewSource(3))
	const n = 2_000_000
	below := 0
	for i := 0; i < n; i++ {
		if d.SampleCell(rng) < 0.256 {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.8e-3 || frac > 1.6e-3 {
		t.Fatalf("P(cell < 256ms) = %v, calibration wants ~1.2e-3", frac)
	}
}

func TestHistogram(t *testing.T) {
	counts, centers, err := Histogram([]float64{0.1, 0.1, 0.9, 2.0, -5}, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 3 || counts[1] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if centers[0] != 0.25 || centers[1] != 0.75 {
		t.Fatalf("centers = %v", centers)
	}
	if _, _, err := Histogram(nil, 1, 0, 2); err == nil {
		t.Fatal("bad range must be rejected")
	}
	if _, _, err := Histogram(nil, 0, 1, 0); err == nil {
		t.Fatal("zero bins must be rejected")
	}
}

func TestBinPeriod(t *testing.T) {
	cases := []struct {
		tret float64
		want float64
	}{
		{0.064, 0.064},
		{0.100, 0.064},
		{0.128, 0.128},
		{0.191, 0.128},
		{0.192, 0.192},
		{0.256, 0.256},
		{3.0, 0.256},
	}
	for _, c := range cases {
		got, err := BinPeriod(c.tret, RAIDRBins)
		if err != nil {
			t.Fatalf("BinPeriod(%v): %v", c.tret, err)
		}
		if got != c.want {
			t.Errorf("BinPeriod(%v) = %v, want %v", c.tret, got, c.want)
		}
	}
	if _, err := BinPeriod(0.01, RAIDRBins); err == nil {
		t.Fatal("retention below the smallest bin must error")
	}
	if _, err := BinPeriod(1, nil); err == nil {
		t.Fatal("empty bins must error")
	}
}

// Property: the assigned period never exceeds the retention time - the
// binning safety invariant.
func TestBinPeriodSafety(t *testing.T) {
	f := func(raw float64) bool {
		tret := 0.064 + math.Mod(math.Abs(raw), 5)
		p, err := BinPeriod(tret, RAIDRBins)
		return err == nil && p <= tret
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBinCounts(t *testing.T) {
	counts, err := BinCounts([]float64{0.07, 0.13, 0.20, 0.30, 3.0}, RAIDRBins)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0.064] != 1 || counts[0.128] != 1 || counts[0.192] != 1 || counts[0.256] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if _, err := BinCounts([]float64{0.01}, RAIDRBins); err == nil {
		t.Fatal("unusable row must error")
	}
}

func TestSortedBins(t *testing.T) {
	in := []float64{0.256, 0.064, 0.192, 0.128}
	out := SortedBins(in)
	for i := 1; i < len(out); i++ {
		if out[i] < out[i-1] {
			t.Fatal("not sorted")
		}
	}
	if in[0] != 0.256 {
		t.Fatal("input mutated")
	}
}

func TestDecayModels(t *testing.T) {
	for _, m := range []DecayModel{ExpDecay{}, LinearDecay{}} {
		if f := m.Factor(0, 1); f != 1 {
			t.Errorf("%s: Factor(0) = %v, want 1", m.Name(), f)
		}
		if f := m.Factor(1, 1); math.Abs(f-SenseLimit) > 1e-12 {
			t.Errorf("%s: Factor(tret) = %v, want %v", m.Name(), f, SenseLimit)
		}
		prev := 1.0
		for i := 1; i <= 50; i++ {
			f := m.Factor(float64(i)*0.1, 1)
			if f > prev || f < 0 {
				t.Fatalf("%s: decay not monotone in [0,1]", m.Name())
			}
			prev = f
		}
		if f := m.Factor(1, 0); f != 0 {
			t.Errorf("%s: zero retention should decay instantly", m.Name())
		}
	}
	// Exponential loses charge faster than linear early in the period
	// (initial slope -ln2 vs -0.5), making it the conservative law for MPRSF.
	if (ExpDecay{}).Factor(0.3, 1) >= (LinearDecay{}).Factor(0.3, 1) {
		t.Fatal("exponential decay should be the conservative (faster) law early in the period")
	}
}

func TestDecayByName(t *testing.T) {
	for _, name := range []string{"", "exp", "exponential"} {
		m, err := DecayByName(name)
		if err != nil || m.Name() != "exponential" {
			t.Fatalf("%q: %v, %v", name, m, err)
		}
	}
	for _, name := range []string{"lin", "linear"} {
		m, err := DecayByName(name)
		if err != nil || m.Name() != "linear" {
			t.Fatalf("%q: %v, %v", name, m, err)
		}
	}
	if _, err := DecayByName("nope"); err == nil {
		t.Fatal("unknown model must error")
	}
}

func TestPaperProfileExactBinning(t *testing.T) {
	p, err := NewPaperProfile(DefaultCellDistribution(), 42)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := p.BinCounts(RAIDRBins)
	if err != nil {
		t.Fatal(err)
	}
	want := map[float64]int{0.064: 68, 0.128: 101, 0.192: 145, 0.256: 7878}
	for b, w := range want {
		if counts[b] != w {
			t.Errorf("bin %v: %d rows, want %d", b, counts[b], w)
		}
	}
	if len(p.True) != device.PaperBank.Rows || len(p.Profiled) != device.PaperBank.Rows {
		t.Fatal("profile size wrong")
	}
}

func TestPaperProfileDeterministic(t *testing.T) {
	a, err := NewPaperProfile(DefaultCellDistribution(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPaperProfile(DefaultCellDistribution(), 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Profiled {
		if a.Profiled[i] != b.Profiled[i] {
			t.Fatal("same seed must give the same profile")
		}
	}
	c, err := NewPaperProfile(DefaultCellDistribution(), 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Profiled {
		if a.Profiled[i] != c.Profiled[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds must give different profiles")
	}
}

func TestProfiledBelowTrue(t *testing.T) {
	p, err := NewPaperProfile(DefaultCellDistribution(), 42)
	if err != nil {
		t.Fatal(err)
	}
	for r := range p.True {
		if p.Profiled[r] >= p.True[r] {
			t.Fatalf("row %d: profiled %v not below true %v", r, p.Profiled[r], p.True[r])
		}
	}
}

func TestSampledProfile(t *testing.T) {
	geom := device.BankGeometry{Rows: 4096, Cols: 32}
	p, err := NewSampledProfile(geom, DefaultCellDistribution(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.True) != geom.Rows {
		t.Fatal("size wrong")
	}
	counts, err := p.BinCounts(RAIDRBins)
	if err != nil {
		t.Fatalf("some row unusable: %v", err)
	}
	weak := counts[0.064] + counts[0.128] + counts[0.192]
	// Expectation for 4096 rows is ~157 weak rows (half the paper bank's 314).
	if weak < 80 || weak > 260 {
		t.Fatalf("weak rows = %d, want around 157", weak)
	}
	if _, err := NewSampledProfile(device.BankGeometry{}, DefaultCellDistribution(), 1); err == nil {
		t.Fatal("bad geometry must be rejected")
	}
	bad := DefaultCellDistribution()
	bad.BulkSigma = -1
	if _, err := NewSampledProfile(geom, bad, 1); err == nil {
		t.Fatal("bad distribution must be rejected")
	}
}

func TestMinRetention(t *testing.T) {
	p, err := NewPaperProfile(DefaultCellDistribution(), 42)
	if err != nil {
		t.Fatal(err)
	}
	min := p.MinRetention()
	if min < 0.064 || min > 0.128 {
		t.Fatalf("weakest profiled row %v; the 64 ms bin must be populated", min)
	}
}

func TestPeriods(t *testing.T) {
	p, err := NewPaperProfile(DefaultCellDistribution(), 42)
	if err != nil {
		t.Fatal(err)
	}
	periods, err := p.Periods(RAIDRBins)
	if err != nil {
		t.Fatal(err)
	}
	for r, period := range periods {
		if period > p.Profiled[r] {
			t.Fatalf("row %d: period %v exceeds profiled retention %v", r, period, p.Profiled[r])
		}
	}
}

func TestTempModel(t *testing.T) {
	m := DefaultTempModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if s := m.Scale(m.RefC); s != 1 {
		t.Fatalf("scale at reference = %v, want 1", s)
	}
	if s := m.Scale(m.RefC - m.HalvingC); math.Abs(s-2) > 1e-12 {
		t.Fatalf("10C cooler should double retention, got %v", s)
	}
	if s := m.Scale(m.RefC + m.HalvingC); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("10C hotter should halve retention, got %v", s)
	}
	bad := TempModel{RefC: 85, HalvingC: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero slope must be rejected")
	}
}

// TestTempModelRejectsNonFinite: a NaN or infinite parameter passes a sign
// check and turns every scaled retention into NaN, 0 or +Inf, so Validate
// must refuse each one.
func TestTempModelRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, m := range []TempModel{
		{RefC: nan, HalvingC: 10},
		{RefC: inf, HalvingC: 10},
		{RefC: -inf, HalvingC: 10},
		{RefC: 85, HalvingC: nan},
		{RefC: 85, HalvingC: inf},
		{RefC: 85, HalvingC: -inf},
	} {
		if err := m.Validate(); err == nil {
			t.Errorf("%+v accepted", m)
		}
	}
}

func TestAtTemperature(t *testing.T) {
	p, err := NewPaperProfile(DefaultCellDistribution(), 42)
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultTempModel()
	cool := m.AtTemperature(p, 65)
	for i := range p.True {
		if math.Abs(cool.True[i]-4*p.True[i]) > 1e-9 {
			t.Fatalf("row %d: 20C cooler should 4x retention", i)
		}
		if math.Abs(cool.Profiled[i]-4*p.Profiled[i]) > 1e-9 {
			t.Fatalf("row %d: profiled not scaled", i)
		}
	}
	// The original is untouched.
	if &cool.True[0] == &p.True[0] {
		t.Fatal("AtTemperature must copy")
	}
}
