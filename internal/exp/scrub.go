package exp

import (
	"context"
	"fmt"

	"vrldram/internal/core"
	"vrldram/internal/dram"
	"vrldram/internal/ecc"
	"vrldram/internal/fault"
	"vrldram/internal/profiler"
	"vrldram/internal/retention"
	"vrldram/internal/scrub"
	"vrldram/internal/sim"
)

// Scrub is the self-healing tentpole experiment: the online ECC patrol
// scrubber (internal/scrub) against every fault injector the repository
// has, with the scrubber off and on. Each campaign runs a raw VRL scheduler
// - deliberately unguarded, so the repair work is attributable to the
// patrol pipeline alone - with SECDED classification on every sense.
//
// With the scrubber on, every ECC-corrected sense and every patrol hit
// feeds the detect -> diagnose -> repair -> verify loop: the row is demoted
// or upgraded, re-profiled once with a targeted single-row campaign, and
// quarantined to a spare when no schedule can save it. The table reports
// the violation counts (total and after the convergence window), the
// patrol's coverage, and the repair ledger.
func Scrub(cfg Config) (*Result, error) {
	f, err := newFig4Setup(cfg)
	if err != nil {
		return nil, err
	}
	scfg := f.schedConfig()
	seed := cfg.Seed
	settle := 3 * cfg.Duration / 4

	r := &Result{
		ID:    "scrub",
		Title: "Online ECC patrol scrub and self-healing repair vs fault injection",
		Headers: []string{"fault", "scrub", "violations", "late viol", "patrolled",
			"corrected", "uncorr", "reprofiled", "remapped", "healed", "hard fails", "spares left", "SLO misses"},
	}

	// Each (fault, scrub on/off) campaign owns its bank, scheduler stack,
	// and scrubber; the grid fans out on the worker pool.
	type cell struct {
		tc        resilienceCase
		withScrub bool
	}
	var grid []cell
	for _, tc := range faultCases(seed) {
		for _, withScrub := range []bool{false, true} {
			grid = append(grid, cell{tc, withScrub})
		}
	}
	rows := make([][]string, len(grid))
	err = forEachCell(context.Background(), cfg, len(grid), func(ctx context.Context, i int) error {
		tc, withScrub := grid[i].tc, grid[i].withScrub
		schedProf, bankProf, vrt, refresh, err := tc.prepare(f.profile)
		if err != nil {
			return fmt.Errorf("exp: %s: %w", tc.name, err)
		}
		inner, err := core.NewVRL(schedProf, scfg)
		if err != nil {
			return err
		}
		sched := core.Scheduler(inner)
		if refresh {
			inj, err := fault.InjectRefreshFaults(sched, fault.DefaultRefreshFaults(seed+3))
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
		cls := ecc.DefaultClassifier()
		opts := f.opts
		opts.ECC = &cls
		if withScrub {
			store, err := scrub.NewBankStore(bank, cls)
			if err != nil {
				return err
			}
			// The repair target is the inner VRL, never the injector
			// wrapper: an injector forwards repair hooks it cannot honor,
			// and wiring it here would turn every repair into a no-op.
			// One sweep per three tREFW: a patrol read restores the row,
			// so sweeping at the 64 ms tREFW itself would blanket-refresh
			// the whole bank at the fastest bin and mask every fault
			// instead of repairing the weak rows. The slower sweep keeps
			// the patrol a detector, not a refresh policy.
			scr, err := scrub.New(store, scrub.Config{
				Sched:       inner,
				SweepPeriod: 0.192,
				Spares:      64,
				Reprofile: func(row int) (float64, error) {
					return profiler.ProfileRow(bankProf, retention.ExpDecay{}, row, profiler.Options{})
				},
			})
			if err != nil {
				return err
			}
			opts.Scrub = scr
		}
		st, err := sim.RunContext(ctx, bank, sched, nil, opts)
		if err != nil {
			return fmt.Errorf("exp: %s/scrub=%v: %w", tc.name, withScrub, err)
		}
		late := 0
		for _, v := range bank.Violations() {
			if v.Time >= settle {
				late++
			}
		}
		mode := "off"
		if withScrub {
			mode = "on"
		}
		row := []string{
			tc.name, mode,
			fmt.Sprintf("%d", st.Violations),
			fmt.Sprintf("%d", late),
		}
		if withScrub {
			row = append(row,
				fmt.Sprintf("%d", st.Scrub.RowsPatrolled),
				fmt.Sprintf("%d", st.Scrub.Corrected),
				fmt.Sprintf("%d", st.Scrub.Uncorrectable),
				fmt.Sprintf("%d", st.Scrub.Reprofiles),
				fmt.Sprintf("%d", st.Scrub.RowsRemapped),
				fmt.Sprintf("%d", st.Scrub.RowsHealed),
				fmt.Sprintf("%d", st.Scrub.HardFails),
				fmt.Sprintf("%d", st.Scrub.SparesLeft),
				fmt.Sprintf("%d", st.Scrub.SLOMisses))
		} else {
			row = append(row, "-", "-", "-", "-", "-", "-", "-", "-", "-")
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows, rows...)

	r.AddNote("'late viol' counts sense violations after t = %.0f ms, the convergence deadline: a self-healing pipeline must reach and hold zero there even where the raw policy keeps failing", 1000*settle)
	r.AddNote("each campaign is raw VRL + SECDED: repairs are the patrol pipeline's alone (the guard of the resilience table is deliberately absent); faults reuse the resilience experiment's seeded configurations")
	r.AddNote("repair ledger: corrected senses demote/upgrade and trigger one targeted re-profile; uncorrectable senses quarantine the row to one of 64 spares; K=4 consecutive clean patrols heal a suspect row")
	r.AddNote("a patrol read is an activation: its restore silently repairs half-strength refresh restores before they decay into a detection, which is why the truncated-refresh campaign converges with zero ECC events")
	return r, nil
}
