// Benchmark harness: one testing.B benchmark per table and figure of the
// paper (the regenerators of DESIGN.md's experiment index), plus
// micro-benchmarks of the hot building blocks. Run with
//
//	go test -bench=. -benchmem
package vrldram_test

import (
	"testing"

	"vrldram/internal/circuit/analytic"
	"vrldram/internal/circuit/netlists"
	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/exp"
	"vrldram/internal/retention"
	"vrldram/internal/scenario"
	"vrldram/internal/sim"
	"vrldram/internal/trace"
)

// fastCfg shortens the trace-driven experiments so the full benchmark sweep
// stays tractable; the paper-default window is exercised by the tests.
func fastCfg() exp.Config {
	cfg := exp.Default()
	cfg.Duration = 0.256
	return cfg
}

func benchExperiment(b *testing.B, run exp.Runner, cfg exp.Config) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// --- One benchmark per paper artifact -------------------------------------------

func BenchmarkFigure1a(b *testing.B) { benchExperiment(b, exp.Figure1a, exp.Default()) }
func BenchmarkFigure1b(b *testing.B) { benchExperiment(b, exp.Figure1b, exp.Default()) }
func BenchmarkFigure3a(b *testing.B) { benchExperiment(b, exp.Figure3a, exp.Default()) }
func BenchmarkFigure3b(b *testing.B) { benchExperiment(b, exp.Figure3b, exp.Default()) }
func BenchmarkFigure4(b *testing.B)  { benchExperiment(b, exp.Figure4, fastCfg()) }
func BenchmarkFigure5(b *testing.B)  { benchExperiment(b, exp.Figure5, exp.Default()) }
func BenchmarkTable1(b *testing.B)   { benchExperiment(b, exp.Table1, exp.Default()) }
func BenchmarkTable2(b *testing.B)   { benchExperiment(b, exp.Table2, exp.Default()) }
func BenchmarkPower(b *testing.B)    { benchExperiment(b, exp.PowerComparison, fastCfg()) }
func BenchmarkTauPartialSweep(b *testing.B) {
	benchExperiment(b, exp.TauPartialSweep, fastCfg())
}
func BenchmarkPerfImpact(b *testing.B) { benchExperiment(b, exp.PerfImpact, fastCfg()) }

// --- Ablation benches (DESIGN.md Section 8) ---------------------------------------

func BenchmarkAblationGuardband(b *testing.B) { benchExperiment(b, exp.GuardbandSweep, fastCfg()) }
func BenchmarkAblationNBits(b *testing.B)     { benchExperiment(b, exp.NBitsSweep, fastCfg()) }
func BenchmarkAblationDecay(b *testing.B)     { benchExperiment(b, exp.DecaySweep, fastCfg()) }
func BenchmarkAblationCoverage(b *testing.B)  { benchExperiment(b, exp.CoverageSweep, fastCfg()) }
func BenchmarkAblationVRT(b *testing.B)       { benchExperiment(b, exp.VRTImpact, fastCfg()) }
func BenchmarkAblationTemperature(b *testing.B) {
	benchExperiment(b, exp.TemperatureSweep, fastCfg())
}
func BenchmarkAblationDensity(b *testing.B) { benchExperiment(b, exp.DensitySweep, fastCfg()) }
func BenchmarkAblationRank(b *testing.B)    { benchExperiment(b, exp.RankSweep, fastCfg()) }
func BenchmarkAblationElastic(b *testing.B) { benchExperiment(b, exp.ElasticSweep, fastCfg()) }
func BenchmarkAblationRankPerf(b *testing.B) {
	benchExperiment(b, exp.RankPerfSweep, fastCfg())
}
func BenchmarkAblationMargin(b *testing.B) { benchExperiment(b, exp.SenseMarginSweep, fastCfg()) }
func BenchmarkAblationSALP(b *testing.B)   { benchExperiment(b, exp.SALPSweep, fastCfg()) }

// --- Micro-benchmarks of the building blocks --------------------------------------

// BenchmarkAnalyticTauPre measures the closed-form model query of Table 1's
// "Our Model" wall-clock column.
func BenchmarkAnalyticTauPre(b *testing.B) {
	m := analytic.MustNew(device.Default90nm(), device.PaperBank)
	for i := 0; i < b.N; i++ {
		_ = m.TauPre(analytic.PreSenseTargetDefault)
	}
}

// BenchmarkSpicePreSense measures the transient-simulation counterpart of
// Table 1's SPICE column (smallest configuration) in its steady state: one
// PreSenseMeter re-measured per iteration, the shape repeated-measurement
// campaigns (sweeps, profiling) actually run in. Circuit construction and
// solver buffer growth are paid once outside the timed loop.
func BenchmarkSpicePreSense(b *testing.B) {
	p := device.Default90nm()
	g := device.BankGeometry{Rows: 2048, Cols: 32}
	m, err := netlists.NewPreSenseMeter(p, g, "ones", 0.95)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Measure(); err != nil { // warm the solver's workspaces
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Measure(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpicePreSenseCold is the one-shot variant: netlist construction,
// solver setup, and simulation all inside the timed loop, matching what a
// single cold MeasurePreSense call costs.
func BenchmarkSpicePreSenseCold(b *testing.B) {
	p := device.Default90nm()
	g := device.BankGeometry{Rows: 2048, Cols: 32}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := netlists.MeasurePreSense(p, g, "ones", 0.95); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComputeMPRSF measures the per-row mechanism cost.
func BenchmarkComputeMPRSF(b *testing.B) {
	rm, err := core.PaperRestoreModel(device.Default90nm(), device.PaperBank)
	if err != nil {
		b.Fatal(err)
	}
	decay := retention.ExpDecay{}
	for i := 0; i < b.N; i++ {
		_ = core.ComputeMPRSF(1.5, 0.256, rm, decay, core.ChargeGuardband, 3)
	}
}

// BenchmarkSimRefreshOnly measures a refresh-only VRL run over one bin
// hyperperiod on the paper bank.
func BenchmarkSimRefreshOnly(b *testing.B) {
	p := device.Default90nm()
	prof, err := retention.NewPaperProfile(retention.DefaultCellDistribution(), 42)
	if err != nil {
		b.Fatal(err)
	}
	rm, err := core.PaperRestoreModel(p, device.PaperBank)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := core.NewVRL(prof, core.Config{Restore: rm})
		if err != nil {
			b.Fatal(err)
		}
		bank, err := dram.NewBank(prof, retention.ExpDecay{}, retention.PatternAllZeros)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(bank, sched, nil, sim.Options{Duration: 0.768, TCK: p.TCK}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimRefreshOnlyReusable is BenchmarkSimRefreshOnly with an
// explicit sim.Reusable, isolating the steady-state cost once the event
// queue is owned by the caller instead of the internal pool. One warm run
// grows the period lanes and the fast-forward columns outside the timed
// loop, so the numbers reflect the reuse path rather than first-run growth.
func BenchmarkSimRefreshOnlyReusable(b *testing.B) {
	p := device.Default90nm()
	prof, err := retention.NewPaperProfile(retention.DefaultCellDistribution(), 42)
	if err != nil {
		b.Fatal(err)
	}
	rm, err := core.PaperRestoreModel(p, device.PaperBank)
	if err != nil {
		b.Fatal(err)
	}
	r := sim.NewReusable(device.PaperBank.Rows)
	warmSched, err := core.NewVRL(prof, core.Config{Restore: rm})
	if err != nil {
		b.Fatal(err)
	}
	warmBank, err := dram.NewBank(prof, retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.Run(warmBank, warmSched, nil, sim.Options{Duration: 0.768, TCK: p.TCK}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := core.NewVRL(prof, core.Config{Restore: rm})
		if err != nil {
			b.Fatal(err)
		}
		bank, err := dram.NewBank(prof, retention.ExpDecay{}, retention.PatternAllZeros)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run(bank, sched, nil, sim.Options{Duration: 0.768, TCK: p.TCK}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGeneration measures synthesizing one benchmark's trace.
func BenchmarkTraceGeneration(b *testing.B) {
	spec, err := trace.FindBenchmark("streamcluster")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := spec.Generate(device.PaperBank.Rows, 0.256, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileConstruction measures building the paper's retention
// profile.
func BenchmarkProfileConstruction(b *testing.B) {
	dist := retention.DefaultCellDistribution()
	for i := 0; i < b.N; i++ {
		if _, err := retention.NewPaperProfile(dist, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBankBatchRefresh measures the raw columnar kernel: one
// RefreshBatch over every row of the paper bank per iteration, the shape the
// batched simulator backend drains one batch window in. The per-op time
// bumps between iterations keep every batch valid without re-allocating it.
func BenchmarkBankBatchRefresh(b *testing.B) {
	prof, err := retention.NewPaperProfile(retention.DefaultCellDistribution(), 42)
	if err != nil {
		b.Fatal(err)
	}
	bank, err := dram.NewBank(prof, retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		b.Fatal(err)
	}
	rows := bank.Geom.Rows
	ops := make([]dram.BatchOp, rows)
	results := make([]dram.RefreshResult, rows)
	const period = 0.064
	for r := range ops {
		ops[r] = dram.BatchOp{Row: r, Time: period, Alpha: 1}
	}
	if err := bank.RefreshBatch(ops, results); err != nil { // warm scratch columns
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := period * float64(i+2)
		for r := range ops {
			ops[r].Time = t
		}
		if err := bank.RefreshBatch(ops, results); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// deviceYearWindow is the simulated span of the device-year benchmarks: four
// bin hyperperiods, long enough that steady-state behavior (and any
// fast-forward engagement) dominates the one-time run setup.
const deviceYearWindow = 4 * 0.768

// reportDeviceYear converts the measured wall-clock into the two north-star
// metrics: the run cost extrapolated to one simulated device-year, and the
// aggregate row-refresh throughput.
func reportDeviceYear(b *testing.B, refreshes int64) {
	const secPerYear = 365.25 * 24 * 3600
	nsPerOp := b.Elapsed().Seconds() / float64(b.N) * 1e9
	b.ReportMetric(nsPerOp*(secPerYear/deviceYearWindow)/1e6, "ms/device-year")
	if refreshes > 0 {
		b.ReportMetric(float64(refreshes)/b.Elapsed().Seconds(), "rows/s")
	}
}

// BenchmarkDeviceYear tracks the ROADMAP north star ("a tREFW-scale
// device-year should cost milliseconds"): a refresh-only VRL run over four
// bin hyperperiods on the paper bank, with the wall-clock cost extrapolated
// to one simulated device-year (ms/device-year) and the row-refresh
// throughput (rows/s). The quiescent schedule makes this the fast-forward
// engine's home turf: BackendAuto resolves to it for the whole run.
func BenchmarkDeviceYear(b *testing.B) {
	p := device.Default90nm()
	prof, err := retention.NewPaperProfile(retention.DefaultCellDistribution(), 42)
	if err != nil {
		b.Fatal(err)
	}
	rm, err := core.PaperRestoreModel(p, device.PaperBank)
	if err != nil {
		b.Fatal(err)
	}
	r := sim.NewReusable(device.PaperBank.Rows)
	var refreshes int64
	run := func() {
		sched, err := core.NewVRL(prof, core.Config{Restore: rm})
		if err != nil {
			b.Fatal(err)
		}
		bank, err := dram.NewBank(prof, retention.ExpDecay{}, retention.PatternAllZeros)
		if err != nil {
			b.Fatal(err)
		}
		st, err := r.Run(bank, sched, nil, sim.Options{Duration: deviceYearWindow, TCK: p.TCK})
		if err != nil {
			b.Fatal(err)
		}
		refreshes += st.FullRefreshes + st.PartialRefreshes
	}
	run() // warm the queue's lazily-grown buffers
	refreshes = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	reportDeviceYear(b, refreshes)
}

// BenchmarkDeviceYearActive is the device-year cost when the run is NOT
// quiescent: the dpd-adversary scenario perturbs the decay law and a trace
// keeps access events interleaved with refreshes, so the fast-forward engine
// must stay disengaged (no SteadyModulator, trace records inside every
// horizon) and the batched path carries the run. The pair of device-year
// numbers bounds what a mixed fleet should expect; the gap between them is
// what fast-forwarding buys on steady devices, degrading gracefully to this
// figure under activity.
func BenchmarkDeviceYearActive(b *testing.B) {
	p := device.Default90nm()
	prof, err := retention.NewPaperProfile(retention.DefaultCellDistribution(), 42)
	if err != nil {
		b.Fatal(err)
	}
	rm, err := core.PaperRestoreModel(p, device.PaperBank)
	if err != nil {
		b.Fatal(err)
	}
	const nAccesses = 4096
	recs := make([]trace.Record, nAccesses)
	for i := range recs {
		op := trace.Read
		if i%3 == 0 {
			op = trace.Write
		}
		recs[i] = trace.Record{
			Time: float64(i) * deviceYearWindow / nAccesses,
			Op:   op,
			Row:  (i * 37) % device.PaperBank.Rows,
		}
	}
	r := sim.NewReusable(device.PaperBank.Rows)
	var refreshes int64
	run := func(seed int64) {
		sched, err := core.NewVRL(prof, core.Config{Restore: rm})
		if err != nil {
			b.Fatal(err)
		}
		bank, err := dram.NewBank(prof, retention.ExpDecay{}, retention.PatternAllZeros)
		if err != nil {
			b.Fatal(err)
		}
		env, err := scenario.BuildEnv(scenario.Ref{Name: "dpd-adversary"}, deviceYearWindow, seed)
		if err != nil {
			b.Fatal(err)
		}
		if err := bank.SetModulator(env); err != nil {
			b.Fatal(err)
		}
		opts := sim.Options{Duration: deviceYearWindow, TCK: p.TCK, Scenario: env}
		st, err := r.Run(bank, sched, trace.NewSliceSource(recs), opts)
		if err != nil {
			b.Fatal(err)
		}
		refreshes += st.FullRefreshes + st.PartialRefreshes
	}
	run(42) // warm the queue's lazily-grown buffers
	refreshes = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(42)
	}
	reportDeviceYear(b, refreshes)
}
