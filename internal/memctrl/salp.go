package memctrl

import (
	"fmt"
	"sort"

	"vrldram/internal/core"
	"vrldram/internal/dram"
)

// Subarray-level parallelism (SALP, Kim et al. ISCA'12 - reference [21] of
// the paper): a bank's rows live in physically independent subarrays, each
// with its own local row buffer, so a refresh can proceed in one subarray
// while requests are served from the others. This is the natural companion
// to VRL: SALP hides refreshes from *other* subarrays, VRL shortens the
// blocking seen by the refreshed one.
//
// The model here is SALP-ideal: subarrays operate fully independently
// (no shared-bus serialization), so the results are an upper bound on the
// technique - stated in the experiment notes.

// SALPStats reports a subarray-parallel run.
type SALPStats struct {
	Scheduler string
	Subarrays int

	Requests   int64
	RowHits    int64
	AvgLatency float64
	P95Latency int64
	MaxLatency int64

	RefreshOps        int64
	RefreshBusyCycles int64
	StalledByRefresh  int64 // requests that waited on a refresh in THEIR subarray

	Violations int
}

// RunSALP services the request stream against one bank whose rows are
// spread over nSub independent subarrays (contiguous row ranges). nSub = 1
// reduces to a single-row-buffer bank. Of opts it reads Timing, TCK and
// Duration; setting ElasticSlack, ECC, DemoteOnCorrect or Scrub is an
// error.
func RunSALP(bank *dram.Bank, sched core.Scheduler, reqs []Request, opts Options, nSub int) (SALPStats, []Request, error) {
	if err := opts.Timing.Validate(); err != nil {
		return SALPStats{}, nil, err
	}
	if opts.TCK <= 0 || opts.Duration <= 0 {
		return SALPStats{}, nil, fmt.Errorf("memctrl: TCK and Duration must be positive")
	}
	// The subarray engine models none of Run's elastic, ECC or scrub
	// extensions; reject them rather than run as if they were off.
	for _, o := range []struct {
		set  bool
		name string
	}{
		{opts.ElasticSlack != 0, "ElasticSlack"},
		{opts.ECC != nil, "ECC"},
		{opts.DemoteOnCorrect, "DemoteOnCorrect"},
		{opts.Scrub != nil, "Scrub"},
	} {
		if o.set {
			return SALPStats{}, nil, fmt.Errorf("memctrl: RunSALP does not support Options.%s", o.name)
		}
	}
	rows := bank.Geom.Rows
	if nSub < 1 || nSub > rows {
		return SALPStats{}, nil, fmt.Errorf("memctrl: subarray count %d outside [1,%d]", nSub, rows)
	}
	rowsPerSub := (rows + nSub - 1) / nSub
	subOf := func(row int) int { return row / rowsPerSub }

	horizon := int64(opts.Duration / opts.TCK)
	st := SALPStats{Scheduler: sched.Name(), Subarrays: nSub}

	q := newEventQueue(horizon, rows, len(reqs))
	for r := 0; r < rows; r++ {
		p := sched.Period(r)
		if p <= 0 {
			return SALPStats{}, nil, fmt.Errorf("memctrl: row %d period %g", r, p)
		}
		q.push(event{cycle: int64(staggerFrac(r) * p / opts.TCK), kind: evRefresh, row: r})
	}

	out := make([]Request, len(reqs))
	copy(out, reqs)
	var lastArrival int64 = -1
	for i := range out {
		if out[i].Arrival < lastArrival {
			return SALPStats{}, nil, fmt.Errorf("memctrl: request %d out of order", i)
		}
		lastArrival = out[i].Arrival
		if out[i].Row < 0 || out[i].Row >= rows {
			return SALPStats{}, nil, fmt.Errorf("memctrl: request %d row %d out of range", i, out[i].Row)
		}
		if out[i].Arrival >= horizon {
			out = out[:i]
			break
		}
		q.pushRequest(out[i].Arrival)
	}

	// Per-subarray service state, reusing the multi-bank engine's bankState
	// with Request in place of MultiRequest via a thin adapter slice.
	states := make([]*bankState, nSub)
	for i := range states {
		states[i] = newBankState(opts.Timing)
	}
	adapt := make([]MultiRequest, len(out))
	for i, r := range out {
		adapt[i] = MultiRequest{Arrival: r.Arrival, Row: r.Row, Write: r.Write}
	}
	lastRefreshEnd := make([]int64, nSub)

	for ev, ok := q.pop(); ok; ev, ok = q.pop() {
		switch ev.kind {
		case evRefresh:
			sub := subOf(ev.row)
			s := states[sub]
			s.drain(ev.cycle, adapt, &st.RowHits)
			start := ev.cycle
			if s.free > start {
				start = s.free
			}
			start = s.closeForRefresh(start)
			op := sched.RefreshOp(ev.row, float64(start)*opts.TCK)
			if _, err := bank.Refresh(ev.row, dram.Ticks(float64(start)*opts.TCK), op.Alpha); err != nil {
				return SALPStats{}, nil, err
			}
			s.free = start + int64(op.Cycles)
			lastRefreshEnd[sub] = s.free
			st.RefreshOps++
			st.RefreshBusyCycles += int64(op.Cycles)
			if len(s.pending) > 0 {
				st.StalledByRefresh += int64(len(s.pending))
			}
			q.push(event{cycle: ev.cycle + int64(sched.Period(ev.row)/opts.TCK), kind: evRefresh, row: ev.row})
		case evRequest:
			sub := subOf(adapt[ev.req].Row)
			s := states[sub]
			if ev.cycle < lastRefreshEnd[sub] {
				st.StalledByRefresh++
			}
			s.pending = append(s.pending, ev.req)
			for len(s.pending) > 0 {
				next := s.free
				if next < ev.cycle {
					next = ev.cycle
				}
				if top, ok := q.peek(); ok && top.cycle <= next && top.kind == evRefresh &&
					subOf(top.row) == sub {
					break
				}
				s.serveOne(next, adapt, &st.RowHits)
			}
		}
	}
	for i := range states {
		states[i].drain(1<<62, adapt, &st.RowHits)
	}

	var sum int64
	lats := make([]int64, 0, len(out))
	for i := range out {
		out[i].Start = adapt[i].Start
		out[i].Finish = adapt[i].Finish
		out[i].RowHit = adapt[i].RowHit
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
	st.Violations = len(bank.Violations())
	return st, out, nil
}
