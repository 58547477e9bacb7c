package exp

import (
	"context"
	"fmt"

	"vrldram/internal/core"
	"vrldram/internal/dram"
	"vrldram/internal/memctrl"
	"vrldram/internal/retention"
)

// ElasticSweep evaluates elastic refresh (the JEDEC postpone allowance,
// Stuecheli et al.) on top of the refresh policies: under a saturating
// request burst, a due refresh steps behind the queued work instead of
// wedging into it. The technique composes with VRL - postponement removes
// refreshes from the critical path, partial refreshes shrink the ones that
// remain - and the bank model confirms the postponed schedule stays safe.
func ElasticSweep(cfg Config) (*Result, error) {
	f, err := newFig4Setup(cfg)
	if err != nil {
		return nil, err
	}
	// Near-saturation burst: every request conflicts (row changes each
	// time), so the bank turns one around every ~39 cycles (tRAS-limited
	// precharge + ACT + CAS + burst). Arrivals every 38 cycles run the bank
	// at ~98% utilization: a 19-cycle refresh wedged into the stream builds
	// a backlog that takes many requests to drain - the regime where
	// postponement matters.
	var reqs []memctrl.Request
	for i := 0; i < 30000; i++ {
		reqs = append(reqs, memctrl.Request{
			Arrival: 1000 + int64(i)*38,
			Row:     (i * 37) % cfg.Geom.Rows,
		})
	}

	r := &Result{
		ID:    "abl-elastic",
		Title: "Elastic refresh under a saturating burst",
		Headers: []string{"scheduler", "slack", "avg lat (cyc)", "p95 (cyc)", "max (cyc)",
			"postponed", "violations"},
	}
	scfg := f.schedConfig()
	type cell struct {
		name  string
		mk    func() (core.Scheduler, error)
		slack float64
	}
	var grid []cell
	for _, pol := range []struct {
		name string
		mk   func() (core.Scheduler, error)
	}{
		{"RAIDR", func() (core.Scheduler, error) { return core.NewRAIDR(f.profile, scfg) }},
		{"VRL", func() (core.Scheduler, error) { return core.NewVRL(f.profile, scfg) }},
	} {
		for _, slack := range []float64{0, 0.125} {
			grid = append(grid, cell{name: pol.name, mk: pol.mk, slack: slack})
		}
	}
	rows := make([][]string, len(grid))
	err = forEachCell(context.Background(), cfg, len(grid), func(_ context.Context, i int) error {
		c := grid[i]
		sched, err := c.mk()
		if err != nil {
			return err
		}
		bank, err := dram.NewBank(f.profile, retention.ExpDecay{}, retention.PatternAllZeros)
		if err != nil {
			return err
		}
		st, _, err := memctrl.Run(bank, sched, reqs, memctrl.Options{
			Timing:       memctrl.DefaultTiming(),
			TCK:          cfg.Params.TCK,
			Duration:     cfg.Duration,
			ElasticSlack: c.slack,
		})
		if err != nil {
			return err
		}
		rows[i] = []string{c.name, fmt.Sprintf("%.3f", c.slack),
			fmt.Sprintf("%.1f", st.AvgLatency),
			fmt.Sprintf("%d", st.P95Latency),
			fmt.Sprintf("%d", st.MaxLatency),
			fmt.Sprintf("%d", st.RefreshesPostponed),
			fmt.Sprintf("%d", st.Violations)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows, rows...)
	r.AddNote("postponement pulls refreshes off the burst's critical path; VRL then shrinks the refreshes that still land in it")
	r.AddNote("the next refresh is scheduled from the original due time (no debt accumulation), and the charge guardband absorbs the extra decay - zero violations")
	return r, nil
}

// SALPSweep evaluates subarray-level parallelism (Kim et al., ISCA'12 -
// the paper's reference [21]) as the complementary technique to VRL: with
// independent subarrays, a refresh blocks only the rows that share its
// local structures, and requests to the rest of the bank proceed. The
// near-saturation burst of ElasticSweep makes the blocking visible.
func SALPSweep(cfg Config) (*Result, error) {
	f, err := newFig4Setup(cfg)
	if err != nil {
		return nil, err
	}
	var reqs []memctrl.Request
	for i := 0; i < 30000; i++ {
		reqs = append(reqs, memctrl.Request{
			Arrival: 1000 + int64(i)*38,
			Row:     (i * 37) % cfg.Geom.Rows,
		})
	}
	r := &Result{
		ID:    "abl-salp",
		Title: "Subarray-level parallelism x refresh policy (SALP-ideal bound)",
		Headers: []string{"subarrays", "scheduler", "avg lat (cyc)", "p95 (cyc)",
			"stalled by refresh", "violations"},
	}
	scfg := f.schedConfig()
	type cell struct {
		nSub int
		name string
		mk   func() (core.Scheduler, error)
	}
	var grid []cell
	for _, nSub := range []int{1, 2, 8} {
		for _, pol := range []struct {
			name string
			mk   func() (core.Scheduler, error)
		}{
			{"RAIDR", func() (core.Scheduler, error) { return core.NewRAIDR(f.profile, scfg) }},
			{"VRL", func() (core.Scheduler, error) { return core.NewVRL(f.profile, scfg) }},
		} {
			grid = append(grid, cell{nSub: nSub, name: pol.name, mk: pol.mk})
		}
	}
	rows := make([][]string, len(grid))
	err = forEachCell(context.Background(), cfg, len(grid), func(_ context.Context, i int) error {
		c := grid[i]
		sched, err := c.mk()
		if err != nil {
			return err
		}
		bank, err := dram.NewBank(f.profile, retention.ExpDecay{}, retention.PatternAllZeros)
		if err != nil {
			return err
		}
		st, _, err := memctrl.RunSALP(bank, sched, reqs, memctrl.Options{
			Timing:   memctrl.DefaultTiming(),
			TCK:      cfg.Params.TCK,
			Duration: cfg.Duration,
		}, c.nSub)
		if err != nil {
			return err
		}
		rows[i] = []string{fmt.Sprintf("%d", c.nSub), c.name,
			fmt.Sprintf("%.1f", st.AvgLatency),
			fmt.Sprintf("%d", st.P95Latency),
			fmt.Sprintf("%d", st.StalledByRefresh),
			fmt.Sprintf("%d", st.Violations)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows, rows...)
	r.AddNote("more subarrays spread the burst across independent row buffers AND shrink the share of traffic each refresh can block")
	r.AddNote("SALP and VRL compose: SALP hides refreshes from other subarrays, VRL shortens the blocking inside the refreshed one")
	r.AddNote("the model is SALP-ideal (no shared-bus serialization), so these are upper bounds on the technique")
	return r, nil
}
