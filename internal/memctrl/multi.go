package memctrl

import (
	"fmt"
	"sort"

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

// MultiRequest is a request addressed to a specific bank.
type MultiRequest struct {
	Arrival int64
	Bank    int
	Row     int
	Write   bool

	Start  int64
	Finish int64
	RowHit bool
}

// Latency returns queuing + service latency in cycles.
func (r MultiRequest) Latency() int64 { return r.Finish - r.Arrival }

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

// bankState is the per-bank service engine shared by the multi-bank loop.
type bankState struct {
	t           Timing
	free        int64
	openRow     int
	rowOpenedAt int64
	pending     []int
}

func newBankState(t Timing) *bankState {
	return &bankState{t: t, openRow: -1, rowOpenedAt: -1}
}

func (b *bankState) idleClose(at int64) {
	if b.openRow < 0 || b.t.TCloseIdle == 0 {
		return
	}
	preReady := b.free
	if m := b.rowOpenedAt + int64(b.t.TRAS); m > preReady {
		preReady = m
	}
	if at-preReady >= int64(b.t.TCloseIdle) {
		b.openRow = -1
	}
}

// serveOne issues the best pending request (FR-FCFS) at or after `now`; the
// request slice is shared with the caller.
func (b *bankState) serveOne(now int64, reqs []MultiRequest, hits *int64) {
	if len(b.pending) == 0 {
		return
	}
	pick := 0
	if b.openRow >= 0 {
		for k, idx := range b.pending {
			if reqs[idx].Row == b.openRow {
				pick = k
				break
			}
		}
	}
	idx := b.pending[pick]
	b.pending = append(b.pending[:pick], b.pending[pick+1:]...)
	req := &reqs[idx]

	start := now
	if req.Arrival > start {
		start = req.Arrival
	}
	b.idleClose(start)
	var done int64
	if b.openRow == req.Row {
		req.RowHit = true
		*hits++
		done = start + int64(b.t.TCL+b.t.TBL)
	} else {
		pre := start
		if b.openRow >= 0 {
			if m := b.rowOpenedAt + int64(b.t.TRAS); pre < m {
				pre = m
			}
			pre += int64(b.t.TRP)
		}
		done = pre + int64(b.t.TRCD+b.t.TCL+b.t.TBL)
		b.openRow = req.Row
		b.rowOpenedAt = pre
		start = pre
	}
	if req.Write {
		done += int64(b.t.TWR)
	}
	req.Start = start
	req.Finish = done
	b.free = done
}

// closeForRefresh precharges the open row ahead of a refresh, returning the
// cycle the refresh may start.
func (b *bankState) closeForRefresh(start int64) int64 {
	b.idleClose(start)
	if b.openRow >= 0 {
		if m := b.rowOpenedAt + int64(b.t.TRAS); start < m {
			start = m
		}
		start += int64(b.t.TRP)
		b.openRow = -1
	}
	return start
}

// drain serves pending work until the bank would pass `limit` or the queue
// empties.
func (b *bankState) drain(limit int64, reqs []MultiRequest, hits *int64) {
	for len(b.pending) > 0 && b.free < limit {
		before := b.free
		b.serveOne(b.free, reqs, hits)
		if b.free == before {
			break
		}
	}
}

// RunMulti services the request stream against a rank of banks.
func RunMulti(banks []*dram.Bank, scheds []core.Scheduler, reqs []MultiRequest, opts MultiOptions) (MultiStats, []MultiRequest, error) {
	if len(banks) == 0 || len(banks) != len(scheds) {
		return MultiStats{}, nil, fmt.Errorf("memctrl: need matching banks and schedulers, got %d/%d", len(banks), len(scheds))
	}
	if err := opts.Timing.Validate(); err != nil {
		return MultiStats{}, nil, err
	}
	if opts.TCK <= 0 || opts.Duration <= 0 {
		return MultiStats{}, nil, fmt.Errorf("memctrl: TCK and Duration must be positive")
	}
	n := len(banks)
	rows := banks[0].Geom.Rows
	for b := 1; b < n; b++ {
		if banks[b].Geom.Rows != rows {
			return MultiStats{}, nil, fmt.Errorf("memctrl: bank %d geometry mismatch", b)
		}
	}
	horizon := int64(opts.Duration / opts.TCK)
	st := MultiStats{Granularity: opts.Granularity.String(), Scheduler: scheds[0].Name(), Banks: n}

	q := newEventQueue(horizon, rows*n, len(reqs))
	// Refresh timeline: per-bank events carry bank in `req`; all-bank events
	// carry only the row.
	period := func(row int) float64 {
		min := scheds[0].Period(row)
		for _, s := range scheds[1:] {
			if p := s.Period(row); p < min {
				min = p
			}
		}
		return min
	}
	switch opts.Granularity {
	case PerBankRefresh:
		for b := 0; b < n; b++ {
			for r := 0; r < rows; r++ {
				p := scheds[b].Period(r)
				if p <= 0 {
					return MultiStats{}, nil, fmt.Errorf("memctrl: bank %d row %d period %g", b, r, p)
				}
				q.push(event{cycle: int64(staggerFrac(r*n+b) * p / opts.TCK), kind: evRefresh, row: r, req: b})
			}
		}
	case AllBankRefresh:
		for r := 0; r < rows; r++ {
			p := period(r)
			if p <= 0 {
				return MultiStats{}, nil, fmt.Errorf("memctrl: row %d period %g", r, p)
			}
			q.push(event{cycle: int64(staggerFrac(r) * p / opts.TCK), kind: evRefresh, row: r, req: -1})
		}
	default:
		return MultiStats{}, nil, fmt.Errorf("memctrl: unknown granularity %d", opts.Granularity)
	}

	out := make([]MultiRequest, len(reqs))
	copy(out, reqs)
	var lastArrival int64 = -1
	for i := range out {
		if out[i].Arrival < lastArrival {
			return MultiStats{}, nil, fmt.Errorf("memctrl: request %d out of order", i)
		}
		lastArrival = out[i].Arrival
		if out[i].Bank < 0 || out[i].Bank >= n || out[i].Row < 0 || out[i].Row >= rows {
			return MultiStats{}, nil, fmt.Errorf("memctrl: request %d addresses bank %d row %d", i, out[i].Bank, out[i].Row)
		}
		if out[i].Arrival >= horizon {
			out = out[:i]
			break
		}
		q.pushRequest(out[i].Arrival)
	}

	states := make([]*bankState, n)
	for b := range states {
		states[b] = newBankState(opts.Timing)
	}

	refreshBank := func(b int, row int, start int64) (int64, error) {
		start = states[b].closeForRefresh(start)
		op := scheds[b].RefreshOp(row, float64(start)*opts.TCK)
		if _, err := banks[b].Refresh(row, dram.Ticks(float64(start)*opts.TCK), op.Alpha); err != nil {
			return 0, err
		}
		end := start + int64(op.Cycles)
		states[b].free = end
		st.RefreshBusyCycles += int64(op.Cycles)
		return end, nil
	}

	for ev, ok := q.pop(); ok; ev, ok = q.pop() {
		switch ev.kind {
		case evRefresh:
			st.RefreshCommands++
			if ev.req >= 0 {
				// Per-bank refresh.
				b := ev.req
				states[b].drain(ev.cycle, out, &st.RowHits)
				start := ev.cycle
				if states[b].free > start {
					start = states[b].free
				}
				if _, err := refreshBank(b, ev.row, start); err != nil {
					return MultiStats{}, nil, err
				}
				q.push(event{cycle: ev.cycle + int64(scheds[b].Period(ev.row)/opts.TCK), kind: evRefresh, row: ev.row, req: b})
			} else {
				// All-bank refresh: synchronize, refresh everywhere, block
				// every bank until the slowest finishes.
				start := ev.cycle
				for b := 0; b < n; b++ {
					states[b].drain(ev.cycle, out, &st.RowHits)
					if states[b].free > start {
						start = states[b].free
					}
				}
				end := start
				for b := 0; b < n; b++ {
					e, err := refreshBank(b, ev.row, start)
					if err != nil {
						return MultiStats{}, nil, err
					}
					if e > end {
						end = e
					}
				}
				for b := 0; b < n; b++ {
					states[b].free = end
				}
				q.push(event{cycle: ev.cycle + int64(period(ev.row)/opts.TCK), kind: evRefresh, row: ev.row, req: -1})
			}
		case evRequest:
			b := out[ev.req].Bank
			states[b].pending = append(states[b].pending, ev.req)
			for len(states[b].pending) > 0 {
				next := states[b].free
				if next < ev.cycle {
					next = ev.cycle
				}
				// Yield only to refreshes that touch THIS bank (its own
				// per-bank refresh or a rank-wide command).
				if top, ok := q.peek(); ok && top.cycle <= next && top.kind == evRefresh &&
					(top.req == b || top.req < 0) {
					break
				}
				states[b].serveOne(next, out, &st.RowHits)
			}
		}
	}
	for b := range states {
		states[b].drain(1<<62, out, &st.RowHits)
	}

	var sum int64
	lats := make([]int64, 0, len(out))
	for i := range out {
		st.Requests++
		sum += out[i].Latency()
		lats = append(lats, out[i].Latency())
	}
	if st.Requests > 0 {
		st.AvgLatency = float64(sum) / float64(st.Requests)
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		st.P95Latency = lats[int(float64(len(lats)-1)*0.95)]
		st.MaxLatency = lats[len(lats)-1]
	}
	for b := range banks {
		st.Violations += len(banks[b].Violations())
	}
	return st, out, nil
}

// MultiRequestsFromTrace interleaves a row-granular trace across n banks:
// global row g maps to bank g%n, row g/n.
func MultiRequestsFromTrace(recs []trace.Record, tck float64, n int) []MultiRequest {
	out := make([]MultiRequest, 0, len(recs))
	for _, r := range recs {
		out = append(out, MultiRequest{
			Arrival: int64(r.Time/tck + 0.5),
			Bank:    r.Row % n,
			Row:     r.Row / n,
			Write:   r.Op == trace.Write,
		})
	}
	return out
}
