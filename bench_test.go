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
//
// The set-up of the hot kernels lives in the helpers below, shared with the
// allocation ceilings (alloc_test.go) and the timing ratios (ratio_test.go),
// so a gate always measures exactly what its benchmark measures.

// BenchmarkAnalyticTauPre measures the closed-form model query of Table 1's
// "Our Model" wall-clock column.
func BenchmarkAnalyticTauPre(b *testing.B) {
	m := analytic.MustNew(device.Default90nm(), device.PaperBank)
	for i := 0; i < b.N; i++ {
		_ = m.TauPre(analytic.PreSenseTargetDefault)
	}
}

// preSenseGeom is Table 1's smallest configuration with the given column
// count.
func preSenseGeom(cols int) device.BankGeometry {
	return device.BankGeometry{Rows: 2048, Cols: cols}
}

// warmPreSenseMeter builds a PreSenseMeter over preSenseGeom(cols) and
// measures once, so circuit construction and solver buffer growth are paid
// before the caller's loop.
func warmPreSenseMeter(tb testing.TB, cols int) *netlists.PreSenseMeter {
	tb.Helper()
	m, err := netlists.NewPreSenseMeter(device.Default90nm(), preSenseGeom(cols), "ones", 0.95)
	if err != nil {
		tb.Fatal(err)
	}
	measurePreSense(tb, m)
	return m
}

func measurePreSense(tb testing.TB, m *netlists.PreSenseMeter) {
	tb.Helper()
	if _, err := m.Measure(); err != nil {
		tb.Fatal(err)
	}
}

// coldPreSense is one cold MeasurePreSense call: netlist construction, solver
// setup and simulation.
func coldPreSense(tb testing.TB) {
	tb.Helper()
	if _, err := netlists.MeasurePreSense(device.Default90nm(), preSenseGeom(32), "ones", 0.95); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkSpicePreSense measures the transient-simulation counterpart of
// Table 1's SPICE column (smallest configuration) in its steady state: one
// PreSenseMeter re-measured per iteration, the shape repeated-measurement
// campaigns (sweeps, profiling) actually run in.
func BenchmarkSpicePreSense(b *testing.B) {
	m := warmPreSenseMeter(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		measurePreSense(b, m)
	}
}

// BenchmarkSpicePreSenseCold is the one-shot variant: netlist construction,
// solver setup, and simulation all inside the timed loop, matching what a
// single cold MeasurePreSense call costs.
func BenchmarkSpicePreSenseCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		coldPreSense(b)
	}
}

// paperModels returns the paper bank's retention profile (seed 42) and
// restore model.
func paperModels(tb testing.TB) (*retention.BankProfile, core.RestoreModel) {
	tb.Helper()
	prof, err := retention.NewPaperProfile(retention.DefaultCellDistribution(), 42)
	if err != nil {
		tb.Fatal(err)
	}
	rm, err := core.PaperRestoreModel(device.Default90nm(), device.PaperBank)
	if err != nil {
		tb.Fatal(err)
	}
	return prof, rm
}

// mprsfStep is one steady-state ComputeMPRSF query on the paper's restore
// model.
func mprsfStep(tb testing.TB) func() {
	_, rm := paperModels(tb)
	decay := retention.ExpDecay{}
	return func() { _ = core.ComputeMPRSF(1.5, 0.256, rm, decay, core.ChargeGuardband, 3) }
}

// BenchmarkComputeMPRSF measures the per-row mechanism cost.
func BenchmarkComputeMPRSF(b *testing.B) {
	step := mprsfStep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkSimRefreshOnly measures a refresh-only VRL run over one bin
// hyperperiod on the paper bank, through sim.Run and its internal pool.
func BenchmarkSimRefreshOnly(b *testing.B) {
	p := device.Default90nm()
	prof, rm := paperModels(b)
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
// queue is owned by the caller instead of the internal pool.
func BenchmarkSimRefreshOnlyReusable(b *testing.B) {
	run := deviceYearRun(b, false, 0.768, sim.BackendAuto)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
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

// bankBatchRefresh prepares one RefreshBatch over every row of the paper
// bank, warmed once so the bank's scratch columns are grown. step(i) runs
// the i-th batch; the per-batch time bump keeps every batch valid without
// re-allocating it. It also returns the number of rows per batch.
func bankBatchRefresh(tb testing.TB) (step func(i int), rows int) {
	tb.Helper()
	prof, _ := paperModels(tb)
	bank, err := dram.NewBank(prof, retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		tb.Fatal(err)
	}
	rows = bank.Geom.Rows
	ops := make([]dram.BatchOp, rows)
	results := make([]dram.RefreshResult, rows)
	const period = 0.064
	for r := range ops {
		ops[r] = dram.BatchOp{Row: r, Time: period, Alpha: 1}
	}
	if err := bank.RefreshBatch(ops, results); err != nil {
		tb.Fatal(err)
	}
	return func(i int) {
		t := period * float64(i+2)
		for r := range ops {
			ops[r].Time = t
		}
		if err := bank.RefreshBatch(ops, results); err != nil {
			tb.Fatal(err)
		}
	}, rows
}

// BenchmarkBankBatchRefresh measures the raw columnar kernel: one
// RefreshBatch over every row of the paper bank per iteration, the shape the
// batched simulator backend drains one batch window in.
func BenchmarkBankBatchRefresh(b *testing.B) {
	step, rows := bankBatchRefresh(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// deviceYearWindow is the simulated span of the device-year benchmarks: four
// bin hyperperiods, long enough that steady-state behavior (and any
// fast-forward engagement) dominates the one-time run setup.
const deviceYearWindow = 4 * 0.768

// deviceYearRun prepares a refresh-only VRL run over window simulated
// seconds on the paper bank under the given backend, through one
// sim.Reusable warmed by a first run. Each call of the returned function
// builds a fresh scheduler and bank, runs them and returns the row refreshes
// performed. The active variant adds the dpd-adversary scenario and a
// 4096-record trace spread over the window, which keep fast-forward
// disengaged so the batched path carries the run.
func deviceYearRun(tb testing.TB, active bool, window float64, backend sim.Backend) func() int64 {
	tb.Helper()
	p := device.Default90nm()
	prof, rm := paperModels(tb)
	var recs []trace.Record
	if active {
		const nAccesses = 4096
		recs = make([]trace.Record, nAccesses)
		for i := range recs {
			op := trace.Read
			if i%3 == 0 {
				op = trace.Write
			}
			recs[i] = trace.Record{
				Time: float64(i) * window / nAccesses,
				Op:   op,
				Row:  (i * 37) % device.PaperBank.Rows,
			}
		}
	}
	r := sim.NewReusable(device.PaperBank.Rows)
	run := func() int64 {
		sched, err := core.NewVRL(prof, core.Config{Restore: rm})
		if err != nil {
			tb.Fatal(err)
		}
		bank, err := dram.NewBank(prof, retention.ExpDecay{}, retention.PatternAllZeros)
		if err != nil {
			tb.Fatal(err)
		}
		opts := sim.Options{Duration: window, TCK: p.TCK, Backend: backend}
		var src trace.Source
		if active {
			env, err := scenario.BuildEnv(scenario.Ref{Name: "dpd-adversary"}, window, 42)
			if err != nil {
				tb.Fatal(err)
			}
			if err := bank.SetModulator(env); err != nil {
				tb.Fatal(err)
			}
			opts.Scenario = env
			src = trace.NewSliceSource(recs)
		}
		st, err := r.Run(bank, sched, src, opts)
		if err != nil {
			tb.Fatal(err)
		}
		return st.Refreshes()
	}
	run() // warm the queue's lazily-grown buffers
	return run
}

// benchDeviceYear times deviceYearRun and reports the aggregate row-refresh
// throughput (rows/s).
func benchDeviceYear(b *testing.B, active bool) {
	run := deviceYearRun(b, active, deviceYearWindow, sim.BackendAuto)
	var refreshes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refreshes += run()
	}
	b.ReportMetric(float64(refreshes)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkDeviceYear is a refresh-only VRL run over four bin hyperperiods
// on the paper bank. The quiescent schedule makes this the fast-forward
// engine's home turf: BackendAuto resolves to it for the whole run. The
// measured cost of a whole simulated device-year comes from the repository
// benchmark's device-quiet workload (sim.rate), not from scaling this
// window up.
func BenchmarkDeviceYear(b *testing.B) { benchDeviceYear(b, false) }

// BenchmarkDeviceYearActive is the device-year window when the run is NOT
// quiescent: the dpd-adversary scenario perturbs the decay law and a trace
// keeps access events interleaved with refreshes, so the fast-forward engine
// must stay disengaged (no SteadyModulator, trace records inside every
// horizon) and the batched path carries the run. The gap between the two
// device-year benchmarks is what fast-forwarding buys on steady devices.
func BenchmarkDeviceYearActive(b *testing.B) { benchDeviceYear(b, true) }
