package fault

import (
	"io"
	"math"
	"testing"

	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/retention"
	"vrldram/internal/trace"
)

func testProfile(t *testing.T) *retention.BankProfile {
	t.Helper()
	p, err := retention.NewPaperProfile(retention.DefaultCellDistribution(), 42)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func flatTrace(n int, dt float64) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{Time: float64(i) * dt, Op: trace.Read, Row: i % 64}
	}
	return recs
}

func drain(t *testing.T, src trace.Source) []trace.Record {
	t.Helper()
	var out []trace.Record
	for {
		rec, err := src.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
}

func TestTraceCorruptorDeterministicAndCounted(t *testing.T) {
	run := func() ([]trace.Record, int64) {
		c, err := CorruptTrace(trace.NewSliceSource(flatTrace(2000, 1e-4)), DefaultTraceFaults(7))
		if err != nil {
			t.Fatal(err)
		}
		return drain(t, c), c.FaultsInjected()
	}
	recs, faults := run()
	if faults == 0 {
		t.Fatal("default rates injected nothing over 2000 records")
	}
	if got := int64(len(recs)); got != 2000 {
		t.Fatalf("corruptor dropped records: %d of 2000", got)
	}
	// Count each corruption class directly off the stream.
	var reordered, garbage, outOfRange int64
	last := math.Inf(-1)
	for _, r := range recs {
		switch {
		case r.Time < last:
			reordered++
		case r.Op != trace.Read:
			garbage++
		case r.Row >= 64:
			outOfRange++
		default:
			last = r.Time
		}
	}
	if reordered == 0 || garbage == 0 || outOfRange == 0 {
		t.Fatalf("all three classes should appear: reorder=%d garbage=%d range=%d", reordered, garbage, outOfRange)
	}
	if reordered+garbage+outOfRange != faults {
		t.Fatalf("stream shows %d corruptions, counter says %d", reordered+garbage+outOfRange, faults)
	}
	recs2, faults2 := run()
	if faults2 != faults {
		t.Fatalf("not deterministic: %d vs %d faults", faults, faults2)
	}
	for i := range recs {
		if recs[i] != recs2[i] {
			t.Fatalf("record %d differs between identical runs", i)
		}
	}
}

func TestTraceCorruptorTruncates(t *testing.T) {
	c, err := CorruptTrace(trace.NewSliceSource(flatTrace(100, 1e-4)), TraceFaults{TruncateAfter: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(drain(t, c)); got != 40 {
		t.Fatalf("delivered %d records, want truncation at 40", got)
	}
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("after truncation want io.EOF, got %v", err)
	}
}

func TestTraceFaultsValidate(t *testing.T) {
	if _, err := CorruptTrace(trace.Empty{}, TraceFaults{GarbageRate: 1.5}); err == nil {
		t.Fatal("rate > 1 accepted")
	}
	if _, err := CorruptTrace(trace.Empty{}, TraceFaults{TruncateAfter: -1}); err == nil {
		t.Fatal("negative truncation accepted")
	}
}

func TestMisBinProfile(t *testing.T) {
	prof := testProfile(t)
	out, n, err := MisBinProfile(prof, 0.05, retention.RAIDRBins, 11)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no rows mis-binned at 5% over 8192 rows")
	}
	if &out.True[0] != &prof.True[0] {
		t.Fatal("true retention must be shared: the silicon does not read the datasheet")
	}
	changed := 0
	for r := range out.Profiled {
		if out.Profiled[r] == prof.Profiled[r] {
			continue
		}
		changed++
		was, err := retention.BinPeriod(prof.Profiled[r], retention.RAIDRBins)
		if err != nil {
			t.Fatal(err)
		}
		now, err := retention.BinPeriod(out.Profiled[r], retention.RAIDRBins)
		if err != nil {
			t.Fatal(err)
		}
		if now <= was {
			t.Fatalf("row %d: mis-bin moved %g -> %g, want strictly slower", r, was, now)
		}
	}
	if changed != n {
		t.Fatalf("reported %d mis-binned rows, profile shows %d", n, changed)
	}
	// Determinism.
	_, n2, err := MisBinProfile(prof, 0.05, retention.RAIDRBins, 11)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != n {
		t.Fatalf("not deterministic: %d vs %d", n, n2)
	}
	if _, _, err := MisBinProfile(prof, -0.1, nil, 1); err == nil {
		t.Fatal("negative fraction accepted")
	}
}

func TestTransientWeakCells(t *testing.T) {
	v, err := TransientWeakCells(0.2, 0.5, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v.MinRetention != 0 {
		t.Fatal("fault injector must be allowed to hit short-retention rows")
	}
	affected := 0
	for r := 0; r < 1000; r++ {
		if v.Affected(r, 0.080) {
			affected++
		}
	}
	if affected < 100 || affected > 300 {
		t.Fatalf("affected %d of 1000 rows at frac 0.2", affected)
	}
	if _, err := TransientWeakCells(0.2, 1.5, 10, 3); err == nil {
		t.Fatal("low factor > 1 accepted")
	}
}

func TestTemperatureExcursion(t *testing.T) {
	prof := testProfile(t)
	m := retention.DefaultTempModel()
	hot, err := TemperatureExcursion(prof, m, m.RefC+10)
	if err != nil {
		t.Fatal(err)
	}
	for r := range hot.True {
		if want := prof.True[r] * 0.5; math.Abs(hot.True[r]-want) > 1e-12*want {
			t.Fatalf("row %d: true retention %g, want halved %g", r, hot.True[r], want)
		}
	}
	if &hot.Profiled[0] != &prof.Profiled[0] {
		t.Fatal("profiled retention must still claim the profiling temperature")
	}
	if _, err := TemperatureExcursion(prof, retention.TempModel{RefC: 85}, 95); err == nil {
		t.Fatal("invalid temp model accepted")
	}
}

// TestTemperatureExcursionRejectsNonFinite: a NaN temperature makes every
// true retention NaN, whose charge never compares below the sense limit (a
// silent zero-violation run), and an infinite one zeroes or inflates every
// retention; the injector must refuse both, and any non-finite model.
func TestTemperatureExcursionRejectsNonFinite(t *testing.T) {
	prof := testProfile(t)
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name  string
		m     retention.TempModel
		tempC float64
	}{
		{"temp-nan", retention.DefaultTempModel(), nan},
		{"temp-inf", retention.DefaultTempModel(), inf},
		{"temp-neg-inf", retention.DefaultTempModel(), -inf},
		{"ref-nan", retention.TempModel{RefC: nan, HalvingC: 10}, 90},
		{"halving-nan", retention.TempModel{RefC: 85, HalvingC: nan}, 90},
		{"halving-inf", retention.TempModel{RefC: 85, HalvingC: inf}, 90},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := TemperatureExcursion(prof, c.m, c.tempC); err == nil {
				t.Fatalf("model %+v at %g degC accepted", c.m, c.tempC)
			}
		})
	}
}

// TestFaultFractionsRejectNaN: NaN passes a "< 0 || > 1" range check, so
// each fraction check must be written to fail it.
func TestFaultFractionsRejectNaN(t *testing.T) {
	prof := testProfile(t)
	nan := math.NaN()
	for _, frac := range []float64{nan, math.Inf(1), math.Inf(-1), -0.1, 1.1} {
		if _, _, err := MisBinProfile(prof, frac, nil, 1); err == nil {
			t.Errorf("MisBinProfile accepted fraction %g", frac)
		}
	}
	for _, f := range []RefreshFaults{
		{Rate: nan, AlphaFactor: 0.5},
		{Rate: 0.03, AlphaFactor: nan},
	} {
		if err := f.Validate(); err == nil {
			t.Errorf("RefreshFaults %+v accepted", f)
		}
	}
}

func TestRefreshInjector(t *testing.T) {
	p := device.Default90nm()
	rm, err := core.PaperRestoreModel(p, device.PaperBank)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := core.NewJEDEC(0.064, rm)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := InjectRefreshFaults(inner, RefreshFaults{Rate: 0.1, AlphaFactor: 0.5, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if inj.Period(0) != inner.Period(0) || inj.MPRSF(0) != inner.MPRSF(0) {
		t.Fatal("injector must not perturb the schedule, only the operations")
	}
	truncated := 0
	for i := 0; i < 1000; i++ {
		op := inj.RefreshOp(i%64, float64(i)*1e-3)
		switch op.Alpha {
		case rm.AlphaFull:
		case rm.AlphaFull * 0.5:
			truncated++
		default:
			t.Fatalf("op %d: alpha %g is neither nominal nor truncated", i, op.Alpha)
		}
	}
	if truncated < 50 || truncated > 200 {
		t.Fatalf("truncated %d of 1000 ops at rate 0.1", truncated)
	}
	if inj.FaultsInjected() != int64(truncated) {
		t.Fatalf("counter %d, stream shows %d", inj.FaultsInjected(), truncated)
	}
	if _, err := InjectRefreshFaults(inner, RefreshFaults{Rate: 2}); err == nil {
		t.Fatal("rate > 1 accepted")
	}
	if _, err := InjectRefreshFaults(inner, RefreshFaults{Rate: 0.5, AlphaFactor: 1}); err == nil {
		t.Fatal("AlphaFactor 1 (no-op fault) accepted")
	}
}
