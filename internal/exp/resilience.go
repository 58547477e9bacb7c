package exp

import (
	"context"
	"fmt"

	"vrldram/internal/core"
	"vrldram/internal/dram"
	"vrldram/internal/fault"
	"vrldram/internal/guard"
	"vrldram/internal/retention"
	"vrldram/internal/sim"
)

// resilienceCase is one fault campaign of the resilience sweep.
type resilienceCase struct {
	name string
	// prepare returns the profile the SCHEDULER consumes, the profile the
	// BANK obeys (the two differ for profile-level faults), an optional VRT
	// process for the bank, and whether the scheduler stack should be wrapped
	// with a refresh-operation injector.
	prepare func(p *retention.BankProfile) (schedProf, bankProf *retention.BankProfile, vrt *retention.VRT, refresh bool, err error)
}

// faultCases is the shared fault-injection campaign table: every injector
// internal/fault offers, in a deterministic seeded configuration. Both the
// resilience sweep and the scrub experiment iterate it, so the two tables
// stay comparable row for row.
func faultCases(seed int64) []resilienceCase {
	return []resilienceCase{
		{
			name: "none",
			prepare: func(p *retention.BankProfile) (*retention.BankProfile, *retention.BankProfile, *retention.VRT, bool, error) {
				return p, p, nil, false, nil
			},
		},
		{
			name: "mis-binned profile (5%)",
			prepare: func(p *retention.BankProfile) (*retention.BankProfile, *retention.BankProfile, *retention.VRT, bool, error) {
				bad, _, err := fault.MisBinProfile(p, 0.05, retention.RAIDRBins, seed+1)
				return bad, bad, nil, false, err
			},
		},
		{
			name: "transient weak cells (5% @ 0.55x)",
			prepare: func(p *retention.BankProfile) (*retention.BankProfile, *retention.BankProfile, *retention.VRT, bool, error) {
				return p, p, fault.DefaultTransientWeakCells(seed + 2), false, nil
			},
		},
		{
			name: "temperature excursion (+5 degC)",
			prepare: func(p *retention.BankProfile) (*retention.BankProfile, *retention.BankProfile, *retention.VRT, bool, error) {
				hot, err := fault.TemperatureExcursion(p, retention.DefaultTempModel(), retention.DefaultTempModel().RefC+5)
				return p, hot, nil, false, err
			},
		},
		{
			name: "truncated refreshes (3% @ 0.5x)",
			prepare: func(p *retention.BankProfile) (*retention.BankProfile, *retention.BankProfile, *retention.VRT, bool, error) {
				return p, p, nil, true, nil
			},
		},
	}
}

// Resilience sweeps the fault injectors of internal/fault across three
// policies - RAIDR, raw VRL, and VRL wrapped in the graceful-degradation
// guard - and reports the violation/overhead frontier: what each fault
// costs an unprotected retention-aware policy, and what the guard pays to
// contain it. All campaigns are seeded, so the table is reproducible.
func Resilience(cfg Config) (*Result, error) {
	f, err := newFig4Setup(cfg)
	if err != nil {
		return nil, err
	}
	scfg := f.schedConfig()
	seed := cfg.Seed
	cases := faultCases(seed)

	type policy struct {
		name    string
		guarded bool
		build   func(p *retention.BankProfile) (core.Scheduler, error)
	}
	policies := []policy{
		{"RAIDR", false, func(p *retention.BankProfile) (core.Scheduler, error) { return core.NewRAIDR(p, scfg) }},
		{"VRL", false, func(p *retention.BankProfile) (core.Scheduler, error) { return core.NewVRL(p, scfg) }},
		{"VRL+guard", true, func(p *retention.BankProfile) (core.Scheduler, error) {
			inner, err := core.NewVRL(p, scfg)
			if err != nil {
				return nil, err
			}
			return guard.New(inner, p.Geom.Rows, guard.Config{Restore: f.rm})
		}},
	}

	r := &Result{
		ID:    "resilience",
		Title: "Fault injection vs policy: violations and overhead, guarded and unguarded",
		Headers: []string{"fault", "policy", "violations", "overhead %",
			"faults inj.", "alarms", "demotions", "escalations", "breaker trips", "degraded ms"},
	}

	// Every (fault, policy) pairing is its own seeded campaign with its own
	// bank and scheduler stack; fan the full grid out on the worker pool.
	type cell struct {
		tc  resilienceCase
		pol policy
	}
	var grid []cell
	for _, tc := range cases {
		for _, pol := range policies {
			grid = append(grid, cell{tc, pol})
		}
	}
	rows := make([][]string, len(grid))
	err = forEachCell(context.Background(), cfg, len(grid), func(ctx context.Context, i int) error {
		tc, pol := grid[i].tc, grid[i].pol
		schedProf, bankProf, vrt, refresh, err := tc.prepare(f.profile)
		if err != nil {
			return fmt.Errorf("exp: %s: %w", tc.name, err)
		}
		sched, err := pol.build(schedProf)
		if err != nil {
			return err
		}
		var faultCfg fault.RefreshFaults
		if refresh {
			faultCfg = fault.DefaultRefreshFaults(seed + 3)
			inj, err := fault.InjectRefreshFaults(sched, faultCfg)
			if err != nil {
				return err
			}
			sched = inj
		}
		bank, err := dram.NewBank(bankProf, retention.ExpDecay{}, retention.PatternAllZeros)
		if err != nil {
			return err
		}
		if vrt != nil {
			if err := bank.SetVRT(vrt); err != nil {
				return err
			}
		}
		st, err := sim.RunContext(ctx, bank, sched, nil, f.opts)
		if err != nil {
			return fmt.Errorf("exp: %s/%s: %w", tc.name, pol.name, err)
		}
		row := []string{
			tc.name, pol.name,
			fmt.Sprintf("%d", st.Violations),
			fmt.Sprintf("%.3f", 100*st.OverheadFraction(cfg.Params.TCK)),
			fmt.Sprintf("%d", st.FaultsInjected),
		}
		if pol.guarded {
			row = append(row,
				fmt.Sprintf("%d", st.Guard.Alarms),
				fmt.Sprintf("%d", st.Guard.Demotions),
				fmt.Sprintf("%d", st.Guard.Escalations),
				fmt.Sprintf("%d", st.Guard.BreakerTrips),
				fmt.Sprintf("%.1f", 1000*st.Guard.TimeDegraded))
		} else {
			row = append(row, "-", "-", "-", "-", "-")
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows, rows...)

	r.AddNote("faults are deterministic (seed %d): profile mis-binning places rows one bin slower than they sustain; weak cells and the temperature excursion erode true retention behind the profile's back; truncated refreshes deliver half-strength restores", seed)
	r.AddNote("the guard starts every row on probation at the 32 ms floor and promotes one rung per clean-sense streak, so its overhead includes the probation tax of the %.0f ms window", 1000*cfg.Duration)
	r.AddNote("a sound guard shows zero violations wherever the fault is schedulable (above the floor period); physics the floor cannot outrun still trips the breaker instead of failing silently")
	return r, nil
}
