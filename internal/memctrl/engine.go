package memctrl

import (
	"fmt"
	"math"
	"slices"

	"vrldram/internal/core"
	"vrldram/internal/dram"
	"vrldram/internal/ecc"
	"vrldram/internal/retention"
)

// bankState is one service unit: a row buffer with its FR-FCFS queue.
type bankState struct {
	t              *Timing
	free           int64 // cycle the unit can accept the next command
	openRow        int
	rowOpenedAt    int64
	pending        []int // indices of queued requests
	lastRefreshEnd int64 // cycle the most recent refresh released the unit
}

// idleClose applies the adaptive page policy: a row idle past the timeout
// has been precharged in the background by cycle `at`. The earliest a
// background PRE could issue is after both the last burst and the tRAS
// window; TCloseIdle (>= tRP) of further idleness hides the precharge
// entirely.
func (s *bankState) idleClose(at int64) {
	if s.openRow < 0 || s.t.TCloseIdle == 0 {
		return
	}
	preReady := max(s.free, s.rowOpenedAt+int64(s.t.TRAS))
	if at-preReady >= int64(s.t.TCloseIdle) {
		s.openRow = -1
	}
}

// precharge closes the open row (respecting tRAS) for a command wanting the
// unit at cycle start, and returns the cycle that command may begin.
func (s *bankState) precharge(start int64) int64 {
	s.idleClose(start)
	if s.openRow >= 0 {
		start = max(start, s.rowOpenedAt+int64(s.t.TRAS)) + int64(s.t.TRP)
		s.openRow = -1
	}
	return start
}

// engine is the controller's one event loop. Its service units are banks ×
// subarrays: unit u is subarray u%nSub of bank u/nSub, holding that bank's
// rows [sub·rowsPerSub, (sub+1)·rowsPerSub). A refresh event addresses the
// unit holding its row in one bank (per-bank refresh, ev.req = unit), or
// every unit at once (all-bank refresh, ev.req = -1): row r refreshes in
// every bank at the minimum of their periods and blocks every unit until
// the slowest bank's operation ends.
type engine struct {
	banks      []*dram.Bank
	scheds     []core.Scheduler
	monitors   []core.SenseMonitor // scheds[b] as a SenseMonitor, or nil
	nSub       int
	rowsPerSub int
	opts       Options
	units      []bankState
	q          *eventQueue
	out        []Request
	st         Stats
}

// run services the request stream on banks × nSub units under refresh
// granularity g. Elastic slack, ECC and the patrol scrubber come only from
// Run, whose engine has one unit; the scrubber patrols bank 0.
func run(banks []*dram.Bank, scheds []core.Scheduler, reqs []Request, opts Options, nSub int, g RefreshGranularity) (Stats, []Request, error) {
	if err := opts.Timing.Validate(); err != nil {
		return Stats{}, nil, err
	}
	if opts.TCK <= 0 || opts.Duration <= 0 {
		return Stats{}, nil, fmt.Errorf("memctrl: TCK and Duration must be positive")
	}
	if opts.ElasticSlack < 0 || opts.ElasticSlack > 0.5 {
		return Stats{}, nil, fmt.Errorf("memctrl: ElasticSlack %g outside [0, 0.5]", opts.ElasticSlack)
	}
	if opts.ECC != nil {
		if err := opts.ECC.Validate(); err != nil {
			return Stats{}, nil, err
		}
	}
	n, rows := len(banks), banks[0].Geom.Rows
	e := &engine{
		banks:      banks,
		scheds:     scheds,
		monitors:   make([]core.SenseMonitor, n),
		nSub:       nSub,
		rowsPerSub: (rows + nSub - 1) / nSub,
		opts:       opts,
		units:      make([]bankState, n*nSub),
		q:          newEventQueue(int64(opts.Duration/opts.TCK), rows*n+1, len(reqs)),
		st:         Stats{Scheduler: scheds[0].Name()},
	}
	for b, s := range scheds {
		e.monitors[b], _ = s.(core.SenseMonitor)
	}
	for u := range e.units {
		e.units[u] = bankState{t: &e.opts.Timing, openRow: -1, rowOpenedAt: -1, lastRefreshEnd: -1}
	}

	// Seed the refresh timeline (same golden-ratio stagger as internal/sim,
	// spread over banks).
	seed := func(row, unit, phase int) error {
		p := e.period(row, unit)
		if p <= 0 {
			return fmt.Errorf("memctrl: row %d refresh period %g", row, p)
		}
		first := int64(staggerFrac(phase) * p / opts.TCK)
		e.q.push(event{cycle: first, kind: evRefresh, row: row, due: first, req: unit})
		return nil
	}
	for r := 0; r < rows && g == AllBankRefresh; r++ {
		if err := seed(r, -1, r); err != nil {
			return Stats{}, nil, err
		}
	}
	for b := 0; b < n && g == PerBankRefresh; b++ {
		for r := 0; r < rows; r++ {
			if err := seed(r, e.unit(b, r), r*n+b); err != nil {
				return Stats{}, nil, err
			}
		}
	}
	if opts.Scrub != nil {
		if opts.Scrub.Rows() != rows {
			return Stats{}, nil, fmt.Errorf("memctrl: scrubber patrols %d rows, bank has %d", opts.Scrub.Rows(), rows)
		}
		e.q.push(event{cycle: int64(math.Ceil(opts.Scrub.NextDue() / opts.TCK)), kind: evScrub})
	}

	e.out = make([]Request, len(reqs))
	copy(e.out, reqs)
	var lastArrival int64 = -1
	for i, r := range e.out {
		if r.Arrival < lastArrival {
			return Stats{}, nil, fmt.Errorf("memctrl: request %d arrives out of order", i)
		}
		lastArrival = r.Arrival
		if r.Bank < 0 || r.Bank >= n || r.Row < 0 || r.Row >= rows {
			return Stats{}, nil, fmt.Errorf("memctrl: request %d addresses bank %d row %d, outside %d banks of %d rows", i, r.Bank, r.Row, n, rows)
		}
		if r.Arrival >= e.q.horizon {
			e.out = e.out[:i]
			break
		}
		e.q.pushRequest(r.Arrival)
	}

	for ev, ok := e.q.pop(); ok; ev, ok = e.q.pop() {
		var err error
		switch ev.kind {
		case evRefresh:
			err = e.refresh(ev)
		case evScrub:
			err = e.scrub(ev)
		case evRequest:
			e.request(ev)
		}
		if err != nil {
			return Stats{}, nil, err
		}
	}
	for u := range e.units {
		e.drain(u, math.MaxInt64)
	}
	e.aggregate()
	return e.st, e.out, nil
}

// unit returns the unit holding row in bank b, and bank the bank holding
// unit u. Both skip the division when each bank is one unit (Run and
// RunMulti): it costs ~2 % of a Run.
func (e *engine) unit(b, row int) int {
	if e.nSub == 1 {
		return b
	}
	return b*e.nSub + row/e.rowsPerSub
}

func (e *engine) bank(u int) int {
	if e.nSub == 1 {
		return u
	}
	return u / e.nSub
}

// period is the refresh period of row under a refresh event for unit: its
// bank's period, or for an all-bank command (unit -1) the minimum over the
// banks.
func (e *engine) period(row, unit int) float64 {
	if unit >= 0 {
		return e.scheds[e.bank(unit)].Period(row)
	}
	p := e.scheds[0].Period(row)
	for _, s := range e.scheds[1:] {
		p = min(p, s.Period(row))
	}
	return p
}

// request queues an arriving request on its unit and serves as much as the
// unit allows, yielding to a refresh due at or before the next start that
// touches this unit.
func (e *engine) request(ev event) {
	r := &e.out[ev.req]
	u := e.unit(r.Bank, r.Row)
	s := &e.units[u]
	if ev.cycle < s.lastRefreshEnd {
		// Arrived while a refresh held the unit.
		e.st.StalledByRefresh++
	}
	s.pending = append(s.pending, ev.req)
	for len(s.pending) > 0 {
		next := max(s.free, ev.cycle)
		if top, ok := e.q.peek(); ok && top.cycle <= next && top.kind == evRefresh && (top.req == u || top.req < 0) {
			break // let the refresh in first
		}
		e.serveOne(u, next)
	}
}

// serveOne issues unit u's best pending request at or after cycle now,
// preferring row hits (FR-FCFS).
func (e *engine) serveOne(u int, now int64) {
	s := &e.units[u]
	t := s.t
	pick := 0
	if s.openRow >= 0 {
		for k, idx := range s.pending {
			if e.out[idx].Row == s.openRow {
				pick = k
				break
			}
		}
	}
	idx := s.pending[pick]
	s.pending = append(s.pending[:pick], s.pending[pick+1:]...)
	req := &e.out[idx]

	start := max(now, req.Arrival)
	s.idleClose(start)
	var done int64
	req.RowHit = s.openRow == req.Row
	if req.RowHit {
		e.st.RowHits++
		done = start + int64(t.TCL+t.TBL)
	} else {
		// Close the open row, open the new one. The activation restores
		// the row: tell the charge model and the scheduler (VRL-Access
		// exploits this).
		start = s.precharge(start)
		done = start + int64(t.TRCD+t.TCL+t.TBL)
		s.openRow = req.Row
		s.rowOpenedAt = start
		when := float64(start) * e.opts.TCK
		if _, _, err := e.banks[req.Bank].Access(req.Row, dram.Ticks(when), 0); err == nil {
			e.scheds[req.Bank].OnAccess(req.Row, when)
		}
	}
	if req.Write {
		done += int64(t.TWR)
	}
	req.Start = start
	req.Finish = done
	s.free = done
}

// drain serves unit u's pending work while the unit frees up before limit.
// Every service advances s.free, so the loop ends.
func (e *engine) drain(u int, limit int64) {
	s := &e.units[u]
	for len(s.pending) > 0 && s.free < limit {
		e.serveOne(u, s.free)
	}
}

// refresh runs one refresh event: it drains the units the event touches up
// to its cycle, refreshes the row in each addressed bank from the latest
// unit release on, and holds every touched unit until the slowest
// operation ends.
func (e *engine) refresh(ev event) error {
	lo, hi := ev.req, ev.req+1
	if ev.req < 0 {
		lo, hi = 0, len(e.units)
	}
	if e.postpone(ev, lo, hi) {
		return nil
	}
	start := ev.cycle
	for u := lo; u < hi; u++ {
		e.drain(u, ev.cycle)
		start = max(start, e.units[u].free)
	}
	end := start
	for b := e.bank(lo); b <= e.bank(hi-1); b++ {
		done, err := e.refreshRow(b, ev.row, start)
		if err != nil {
			return err
		}
		end = max(end, done)
	}
	e.st.RefreshOps++
	for u := lo; u < hi; u++ {
		s := &e.units[u]
		s.free, s.lastRefreshEnd = end, end
		e.st.StalledByRefresh += int64(len(s.pending))
	}
	// Schedule from the ORIGINAL due time so postponement debt does not
	// accumulate across periods.
	nextDue := ev.due + int64(e.period(ev.row, ev.req)/e.opts.TCK)
	e.q.push(event{cycle: nextDue, kind: evRefresh, row: ev.row, due: nextDue, req: ev.req})
	return nil
}

// postpone applies elastic refresh: while requests wait on a touched unit
// and slack remains, it serves the queued work and steps the refresh back
// behind it, reporting whether it did.
func (e *engine) postpone(ev event, lo, hi int) bool {
	if e.opts.ElasticSlack == 0 {
		return false
	}
	waiting := false
	for u := lo; u < hi; u++ {
		waiting = waiting || len(e.units[u].pending) > 0
	}
	if !waiting {
		return false
	}
	deadline := ev.due + int64(e.opts.ElasticSlack*e.period(ev.row, ev.req)/e.opts.TCK)
	if ev.cycle >= deadline {
		return false
	}
	retry := ev.cycle + 1
	for u := lo; u < hi; u++ {
		s := &e.units[u]
		for len(s.pending) > 0 && s.free < deadline {
			e.serveOne(u, max(s.free, ev.cycle))
		}
		retry = max(retry, s.free)
	}
	e.st.RefreshesPostponed++
	e.q.push(event{cycle: min(retry, deadline), kind: evRefresh, row: ev.row, due: ev.due, req: ev.req})
	return true
}

// refreshRow refreshes row in bank b from cycle start on, after closing the
// open row of the unit holding it, and returns the cycle the operation
// ends. The sensed charge feeds the scheduler's SenseMonitor and the ECC
// classification.
func (e *engine) refreshRow(b, row int, start int64) (int64, error) {
	s := &e.units[e.unit(b, row)]
	op := e.scheds[b].RefreshOp(row, float64(start)*e.opts.TCK)
	start = s.precharge(start)
	when := float64(start) * e.opts.TCK
	res, err := e.banks[b].Refresh(row, dram.Ticks(when), op.Alpha)
	if err != nil {
		return 0, err
	}
	if m := e.monitors[b]; m != nil {
		m.OnSense(row, when, res.ChargeBefore)
	}
	if e.opts.ECC != nil && res.ChargeBefore < retention.SenseLimit {
		switch e.opts.ECC.Classify(res.ChargeBefore) {
		case ecc.Corrected:
			e.st.CorrectedErrors++
			if dm, ok := e.scheds[b].(core.Demoter); e.opts.DemoteOnCorrect && ok {
				dm.Demote(row)
			}
		case ecc.Uncorrectable:
			e.st.UncorrectableErrors++
		}
	}
	e.st.RefreshBusyCycles += int64(op.Cycles)
	return start + int64(op.Cycles), nil
}

// scrub runs one patrol-scrub event on unit 0. A patrol read behaves like a
// row-miss read: close the open row (respecting tRAS), then ACT + CAS + PRE
// on the weak row.
func (e *engine) scrub(ev event) error {
	s := &e.units[0]
	t := s.t
	visited, err := e.opts.Scrub.Tick(float64(ev.cycle)*e.opts.TCK, float64(s.free)*e.opts.TCK)
	if err != nil {
		return err
	}
	if visited {
		cost := int64(t.TRCD + t.TCL + t.TRP)
		s.free = s.precharge(ev.cycle) + cost
		e.st.ScrubBusyCycles += cost
	}
	next := max(int64(math.Ceil(e.opts.Scrub.NextDue()/e.opts.TCK)), ev.cycle+1)
	e.q.push(event{cycle: next, kind: evScrub})
	return nil
}

// aggregate fills the request latency and integrity counters.
func (e *engine) aggregate() {
	st := &e.st
	var sum, sumRead int64
	lats := make([]int64, len(e.out))
	for i, r := range e.out {
		lat := r.Latency()
		lats[i] = lat
		sum += lat
		if r.Write {
			st.Writes++
		} else {
			st.Reads++
			sumRead += lat
		}
	}
	st.Requests = int64(len(e.out))
	if st.Requests > 0 {
		st.AvgLatency = float64(sum) / float64(st.Requests)
		st.RowHitRate = float64(st.RowHits) / float64(st.Requests)
		slices.Sort(lats)
		st.P95Latency = lats[int(float64(len(lats)-1)*0.95)]
		st.MaxLatency = lats[len(lats)-1]
	}
	if st.Reads > 0 {
		st.AvgReadLatency = float64(sumRead) / float64(st.Reads)
	}
	for _, b := range e.banks {
		st.Violations += b.ViolationCount()
	}
}
