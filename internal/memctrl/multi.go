package memctrl

import (
	"fmt"

	"vrldram/internal/core"
	"vrldram/internal/dram"
	"vrldram/internal/trace"
)

// Multi-bank front end: N banks served in parallel (bank-level parallelism),
// with refresh issued either per bank (only the refreshed bank blocks) or
// rank-wide (every bank blocks for the slowest bank's operation). This is
// the request-side counterpart of internal/rank's refresh-only accounting:
// it shows all-bank refresh stalling traffic on EVERY bank.

// RefreshGranularity selects the refresh command scope for RunMulti.
type RefreshGranularity int

// Refresh scopes.
const (
	// PerBankRefresh refreshes each bank on its own schedule; other banks
	// keep serving requests.
	PerBankRefresh RefreshGranularity = iota
	// AllBankRefresh issues rank-wide commands: row r refreshes in every
	// bank at the minimum of their periods, with the maximum latency, and
	// every bank is blocked.
	AllBankRefresh
)

// String names the granularity.
func (g RefreshGranularity) String() string {
	switch g {
	case PerBankRefresh:
		return "per-bank"
	case AllBankRefresh:
		return "all-bank"
	default:
		return fmt.Sprintf("RefreshGranularity(%d)", int(g))
	}
}

// MultiOptions configures a multi-bank run.
type MultiOptions struct {
	Timing      Timing
	TCK         float64
	Duration    float64
	Granularity RefreshGranularity
}

// MultiStats aggregates a multi-bank run.
type MultiStats struct {
	Granularity string
	Scheduler   string
	Banks       int

	Requests   int64
	RowHits    int64
	AvgLatency float64
	P95Latency int64
	MaxLatency int64

	RefreshCommands   int64
	RefreshBusyCycles int64 // summed over banks

	Violations int
}

// RunMulti services the request stream against a rank of banks; each
// request's Bank field addresses its bank.
func RunMulti(banks []*dram.Bank, scheds []core.Scheduler, reqs []Request, opts MultiOptions) (MultiStats, []Request, error) {
	if len(banks) == 0 || len(banks) != len(scheds) {
		return MultiStats{}, nil, fmt.Errorf("memctrl: need matching banks and schedulers, got %d/%d", len(banks), len(scheds))
	}
	for b := 1; b < len(banks); b++ {
		if banks[b].Geom.Rows != banks[0].Geom.Rows {
			return MultiStats{}, nil, fmt.Errorf("memctrl: bank %d geometry mismatch", b)
		}
	}
	if opts.Granularity != PerBankRefresh && opts.Granularity != AllBankRefresh {
		return MultiStats{}, nil, fmt.Errorf("memctrl: unknown granularity %d", opts.Granularity)
	}
	ropts := Options{Timing: opts.Timing, TCK: opts.TCK, Duration: opts.Duration}
	st, out, err := run(banks, scheds, reqs, ropts, 1, opts.Granularity)
	if err != nil {
		return MultiStats{}, nil, err
	}
	return MultiStats{
		Granularity:       opts.Granularity.String(),
		Scheduler:         st.Scheduler,
		Banks:             len(banks),
		Requests:          st.Requests,
		RowHits:           st.RowHits,
		AvgLatency:        st.AvgLatency,
		P95Latency:        st.P95Latency,
		MaxLatency:        st.MaxLatency,
		RefreshCommands:   st.RefreshOps,
		RefreshBusyCycles: st.RefreshBusyCycles,
		Violations:        st.Violations,
	}, out, nil
}

// MultiRequestsFromTrace interleaves a row-granular trace across n banks:
// global row g maps to bank g%n, row g/n.
func MultiRequestsFromTrace(recs []trace.Record, tck float64, n int) []Request {
	out := make([]Request, 0, len(recs))
	for _, r := range recs {
		out = append(out, Request{
			Arrival: int64(r.Time/tck + 0.5),
			Bank:    r.Row % n,
			Row:     r.Row / n,
			Write:   r.Op == trace.Write,
		})
	}
	return out
}
