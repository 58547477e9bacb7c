package exp

import (
	"context"
	"fmt"

	"vrldram/internal/core"
	"vrldram/internal/memctrl"
	"vrldram/internal/profcache"
	"vrldram/internal/rank"
	"vrldram/internal/retention"
	"vrldram/internal/trace"
	"vrldram/internal/tracecache"
)

// RankSweep compares refresh command granularities across a rank of banks:
// the paper's single-bank evaluation implicitly assumes per-bank refresh
// (each bank refreshed on its own schedule); classic all-bank refresh
// commands must run at the weakest bank's bin and the slowest bank's tRFC,
// diluting both RAIDR's binning and VRL's partial refreshes. This experiment
// puts numbers on why retention-aware refresh wants per-bank commands.
func RankSweep(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rm, err := profcache.PaperRestoreModel(cfg.Params, cfg.Geom)
	if err != nil {
		return nil, err
	}
	const nBanks = 8
	// Smaller per-bank geometry keeps the 8-bank sweep quick while
	// preserving the structure (weakest-bank coupling across banks).
	const rows = 2048

	r := &Result{
		ID:    "abl-rank",
		Title: fmt.Sprintf("Refresh command granularity across a %d-bank rank", nBanks),
		Headers: []string{"mode", "scheduler", "commands", "full", "partial",
			"bank-busy cycles", "rank-blocked cycles"},
	}

	type policy struct {
		name string
		mk   func(*retention.BankProfile) (core.Scheduler, error)
	}
	policies := []policy{
		{"RAIDR", func(p *retention.BankProfile) (core.Scheduler, error) {
			return core.NewRAIDR(p, core.Config{Restore: rm})
		}},
		{"VRL", func(p *retention.BankProfile) (core.Scheduler, error) {
			return core.NewVRL(p, core.Config{Restore: rm})
		}},
	}
	// Flatten the mode x policy grid into independent cells; each cell
	// builds its own rank (banks and schedulers are stateful), so cells
	// share nothing mutable.
	type cell struct {
		mode rank.Mode
		pol  policy
	}
	var grid []cell
	for _, mode := range []rank.Mode{rank.PerBank, rank.AllBank} {
		for _, pol := range policies {
			grid = append(grid, cell{mode, pol})
		}
	}
	rowsOut := make([][]string, len(grid))
	busyOut := make([]int64, len(grid))
	err = forEachCell(context.Background(), cfg, len(grid), func(_ context.Context, i int) error {
		mode, pol := grid[i].mode, grid[i].pol
		banks, scheds, err := rank.NewRank(nBanks, cfg.Dist, rows, cfg.Geom.Cols, cfg.Seed, pol.mk)
		if err != nil {
			return err
		}
		st, err := rank.Run(banks, scheds, rank.Options{
			Mode: mode, Duration: cfg.Duration, TCK: cfg.Params.TCK,
		})
		if err != nil {
			return err
		}
		if st.Violations != 0 {
			return fmt.Errorf("exp: rank %s/%s: %d violations", mode, pol.name, st.Violations)
		}
		busyOut[i] = st.BankBusyCycles
		rowsOut[i] = []string{mode.String(), pol.name,
			fmt.Sprintf("%d", st.RefreshCommands),
			fmt.Sprintf("%d", st.FullCommands),
			fmt.Sprintf("%d", st.PartialCommands),
			fmt.Sprintf("%d", st.BankBusyCycles),
			fmt.Sprintf("%d", st.RankBlockedCycles)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	busy := map[string]int64{}
	for i, c := range grid {
		busy[c.mode.String()+c.pol.name] = busyOut[i]
		r.Rows = append(r.Rows, rowsOut[i])
	}
	perVRL := float64(busy["per-bankVRL"]) / float64(busy["per-bankRAIDR"])
	allVRL := float64(busy["all-bankVRL"]) / float64(busy["all-bankRAIDR"])
	r.AddNote("VRL/RAIDR busy-cycle ratio: per-bank %.3f, all-bank %.3f - all-bank commands dilute the partial-refresh saving (a command is full if ANY bank needs full)", perVRL, allVRL)
	r.AddNote("all-bank refresh also pays the binning penalty: commands run at the weakest bank's period, so strong banks refresh too often")
	r.AddNote("retention-aware refresh wants per-bank refresh commands; the paper's single-bank evaluation implicitly assumes them")
	return r, nil
}

// RankPerfSweep is the request-side counterpart of RankSweep: a trace runs
// against a multi-bank front end under both refresh granularities, showing
// all-bank refresh commands stalling traffic on every bank.
func RankPerfSweep(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rm, err := profcache.PaperRestoreModel(cfg.Params, cfg.Geom)
	if err != nil {
		return nil, err
	}
	const nBanks = 8
	const rows = 2048

	spec, err := trace.FindBenchmark("streamcluster")
	if err != nil {
		return nil, err
	}
	recs, err := tracecache.Records(spec, nBanks*rows, cfg.Duration, cfg.Seed)
	if err != nil {
		return nil, err
	}
	reqs := memctrl.MultiRequestsFromTrace(recs, cfg.Params.TCK, nBanks)

	r := &Result{
		ID:    "abl-rankperf",
		Title: fmt.Sprintf("Request latency vs refresh granularity (%d banks, streamcluster)", nBanks),
		Headers: []string{"granularity", "scheduler", "avg lat (cyc)", "refresh delay (mcyc)",
			"max (cyc)", "refresh busy"},
	}
	// Reference: a run with the same traffic and no refresh at all, to
	// express each configuration's refresh-induced delay in millicycles per
	// request. Hoisted ahead of the fan-out so every cell reads the same
	// immutable baseline.
	banksB, schedsB, err := rank.NewRank(nBanks, cfg.Dist, rows, cfg.Geom.Cols, cfg.Seed,
		func(*retention.BankProfile) (core.Scheduler, error) {
			return core.NewJEDEC(10*cfg.Duration, rm)
		})
	if err != nil {
		return nil, err
	}
	base, _, err := memctrl.RunMulti(banksB, schedsB, reqs, memctrl.MultiOptions{
		Timing: memctrl.DefaultTiming(), TCK: cfg.Params.TCK,
		Duration: cfg.Duration, Granularity: memctrl.PerBankRefresh,
	})
	if err != nil {
		return nil, err
	}
	baseAvg := base.AvgLatency

	type cell struct {
		g   memctrl.RefreshGranularity
		pol struct {
			name string
			mk   func(*retention.BankProfile) (core.Scheduler, error)
		}
	}
	var grid []cell
	for _, g := range []memctrl.RefreshGranularity{memctrl.PerBankRefresh, memctrl.AllBankRefresh} {
		for _, pol := range []struct {
			name string
			mk   func(*retention.BankProfile) (core.Scheduler, error)
		}{
			{"RAIDR", func(p *retention.BankProfile) (core.Scheduler, error) {
				return core.NewRAIDR(p, core.Config{Restore: rm})
			}},
			{"VRL", func(p *retention.BankProfile) (core.Scheduler, error) {
				return core.NewVRL(p, core.Config{Restore: rm})
			}},
		} {
			grid = append(grid, cell{g: g, pol: pol})
		}
	}
	rowsOut := make([][]string, len(grid))
	err = forEachCell(context.Background(), cfg, len(grid), func(_ context.Context, i int) error {
		g, pol := grid[i].g, grid[i].pol
		banks, scheds, err := rank.NewRank(nBanks, cfg.Dist, rows, cfg.Geom.Cols, cfg.Seed, pol.mk)
		if err != nil {
			return err
		}
		st, _, err := memctrl.RunMulti(banks, scheds, reqs, memctrl.MultiOptions{
			Timing:      memctrl.DefaultTiming(),
			TCK:         cfg.Params.TCK,
			Duration:    cfg.Duration,
			Granularity: g,
		})
		if err != nil {
			return err
		}
		if st.Violations != 0 {
			return fmt.Errorf("exp: rankperf %s/%s: %d violations", g, pol.name, st.Violations)
		}
		rowsOut[i] = []string{g.String(), pol.name,
			fmt.Sprintf("%.2f", st.AvgLatency),
			fmt.Sprintf("%.1f", (st.AvgLatency-baseAvg)*1000),
			fmt.Sprintf("%d", st.MaxLatency),
			fmt.Sprintf("%d", st.RefreshBusyCycles)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows, rowsOut...)
	r.AddNote("all-bank commands hold every bank for the slowest bank's operation at the weakest bank's rate: more busy cycles and a heavier latency tail")
	r.AddNote("per-bank refresh keeps bank-level parallelism alive, which is what lets VRL's shorter operations translate into latency")
	return r, nil
}
