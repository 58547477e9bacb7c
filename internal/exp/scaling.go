package exp

import (
	"context"
	"fmt"

	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/profcache"
	"vrldram/internal/retention"
	"vrldram/internal/sim"
)

// TemperatureSweep is the thermal extension experiment: retention roughly
// halves per 10 degC, so a profile measured at the 85 degC worst case gains
// margin when the bank runs cooler and loses it when hotter. Two policies
// run at each operating temperature:
//
//   - "static": the scheduler keeps the 85 degC profile (what a simple
//     controller does) - safe at or below the profiling temperature, unsafe
//     above it;
//   - "compensated": the scheduler re-bins the temperature-scaled profile -
//     cooler operation buys longer refresh periods and lower overhead.
func TemperatureSweep(cfg Config) (*Result, error) {
	f, err := newFig4Setup(cfg)
	if err != nil {
		return nil, err
	}
	tm := retention.DefaultTempModel()
	scfg := f.schedConfig()

	raidr, err := f.run(func() (core.Scheduler, error) { return core.NewRAIDR(f.profile, scfg) }, nil)
	if err != nil {
		return nil, err
	}

	r := &Result{
		ID:    "abl-temp",
		Title: "Operating temperature vs safety and overhead (profile measured at 85C)",
		Headers: []string{"temp (C)", "static: violations", "compensated: violations",
			"compensated VRL/RAIDR@85C"},
	}
	run := func(ctx context.Context, schedProfile, bankProfile *retention.BankProfile) (sim.Stats, error) {
		sched, err := core.NewVRL(schedProfile, scfg)
		if err != nil {
			return sim.Stats{}, err
		}
		bank, err := dram.NewBank(bankProfile, retention.ExpDecay{}, retention.PatternAllZeros)
		if err != nil {
			return sim.Stats{}, err
		}
		return sim.RunContext(ctx, bank, sched, nil, f.opts)
	}
	temps := []float64{45, 65, 85, 95}
	rows := make([][]string, len(temps))
	err = forEachCell(context.Background(), cfg, len(temps), func(ctx context.Context, i int) error {
		tempC := temps[i]
		atTemp := tm.AtTemperature(f.profile, tempC)
		static, err := run(ctx, f.profile, atTemp)
		if err != nil {
			return err
		}
		// Above the profiling temperature some rows fall below the fastest
		// supported bin; a real controller clamps them there (and loses
		// data, which the violations column shows). Below it, clamping is a
		// no-op.
		schedProfile := clampProfile(atTemp, retention.RAIDRBins[0])
		comp, err := run(ctx, schedProfile, atTemp)
		if err != nil {
			return err
		}
		rows[i] = []string{fmt.Sprintf("%.0f", tempC),
			fmt.Sprintf("%d", static.Violations),
			fmt.Sprintf("%d", comp.Violations),
			fmt.Sprintf("%.3f", float64(comp.BusyCycles)/float64(raidr.BusyCycles))}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows, rows...)
	r.AddNote("at or below the 85C profiling temperature the static profile is safe; above it, it loses data")
	r.AddNote("temperature-compensated binning converts thermal margin into fewer/cheaper refreshes (the ratio column is against 85C RAIDR)")
	r.AddNote("at 95C even the fastest bin cannot save the weakest rows (clamped rows still violate): the chip is out of its rated range")
	return r, nil
}

// clampProfile floors profiled retention at the given bin so binning stays
// feasible; rows clamped upward are expected to violate (they are out of
// spec).
func clampProfile(p *retention.BankProfile, floor float64) *retention.BankProfile {
	out := &retention.BankProfile{
		Geom:     p.Geom,
		True:     p.True,
		Profiled: append([]float64(nil), p.Profiled...),
	}
	for i, v := range out.Profiled {
		if v < floor {
			out.Profiled[i] = floor
		}
	}
	return out
}

// DensitySweep quantifies the paper's motivation: refresh overhead grows
// with chip capacity, so shaving tRFC matters more every generation. The
// sweep scales the bank's row count and reports the fraction of time each
// policy spends refreshing.
func DensitySweep(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rm, err := profcache.PaperRestoreModel(cfg.Params, cfg.Geom)
	if err != nil {
		return nil, err
	}
	r := &Result{
		ID:      "abl-density",
		Title:   "Refresh overhead vs bank density (the paper's motivation)",
		Headers: []string{"rows", "JEDEC %time", "RAIDR %time", "VRL %time", "VRL saving vs RAIDR"},
	}
	opts := sim.Options{Duration: cfg.Duration, TCK: cfg.Params.TCK, Backend: cfg.Backend}
	rowCounts := []int{4096, 8192, 16384, 32768}
	cells := make([][]string, len(rowCounts))
	err = forEachCell(context.Background(), cfg, len(rowCounts), func(ctx context.Context, i int) error {
		rows := rowCounts[i]
		geom := device.BankGeometry{Rows: rows, Cols: cfg.Geom.Cols}
		profile, err := profcache.SampledProfile(geom, cfg.Dist, cfg.Seed)
		if err != nil {
			return err
		}
		run := func(mk func() (core.Scheduler, error)) (sim.Stats, error) {
			sched, err := mk()
			if err != nil {
				return sim.Stats{}, err
			}
			bank, err := dram.NewBank(profile, retention.ExpDecay{}, retention.PatternAllZeros)
			if err != nil {
				return sim.Stats{}, err
			}
			return sim.RunContext(ctx, bank, sched, nil, opts)
		}
		scfg := core.Config{Restore: rm}
		jed, err := run(func() (core.Scheduler, error) { return core.NewJEDEC(cfg.Params.TRetNom, rm) })
		if err != nil {
			return err
		}
		raidr, err := run(func() (core.Scheduler, error) { return core.NewRAIDR(profile, scfg) })
		if err != nil {
			return err
		}
		vrl, err := run(func() (core.Scheduler, error) { return core.NewVRL(profile, scfg) })
		if err != nil {
			return err
		}
		if jed.Violations+raidr.Violations+vrl.Violations != 0 {
			return fmt.Errorf("exp: density %d rows: violations", rows)
		}
		cells[i] = []string{fmt.Sprintf("%d", rows),
			fmt.Sprintf("%.4f%%", 100*jed.OverheadFraction(cfg.Params.TCK)),
			fmt.Sprintf("%.4f%%", 100*raidr.OverheadFraction(cfg.Params.TCK)),
			fmt.Sprintf("%.4f%%", 100*vrl.OverheadFraction(cfg.Params.TCK)),
			fmt.Sprintf("%.0f%%", 100*(1-float64(vrl.BusyCycles)/float64(raidr.BusyCycles)))}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows, cells...)
	r.AddNote("refresh-busy time grows linearly with rows per bank for every policy (more rows to refresh per period)")
	r.AddNote("VRL's relative saving is density-independent, so its absolute saving grows with capacity - the paper's introduction in one table")
	return r, nil
}
