// Package memctrl is a command-level DRAM memory controller model: the layer
// that turns the paper's refresh-overhead numbers into end-performance
// impact. A bank is unavailable while a refresh operation is in flight
// (the tRFC window the paper shrinks), so pending reads and writes queue up
// behind it; this model measures by how much.
//
// The controller implements an FR-FCFS-style single-bank front end:
//
//   - an open-row (row buffer) policy with ACT/PRE/CAS timing,
//   - row-hit-first scheduling among queued requests,
//   - refresh operations injected by a core.Scheduler at each row's binned
//     refresh instant, blocking the bank for the operation's tRFC,
//   - charge tracking through the dram.Bank model, so a mis-scheduled
//     refresh policy still surfaces as data-integrity violations here.
//
// Latencies are in DRAM clock cycles, consistent with the rest of the
// repository (tCK from device.Params).
package memctrl

import (
	"fmt"
	"io"
	"math"
	"sort"

	"vrldram/internal/core"
	"vrldram/internal/dram"
	"vrldram/internal/ecc"
	"vrldram/internal/retention"
	"vrldram/internal/scrub"
	"vrldram/internal/trace"
)

// Timing holds the command timing constraints in DRAM cycles; defaults are
// DDR3-1600-like and deliberately simple: a row miss costs
// tRP + tRCD + tCL, a row hit tCL, a write adds tWR to the precharge point.
type Timing struct {
	TRCD int // ACT to CAS
	TCL  int // CAS to data
	TRP  int // PRE to ACT
	TRAS int // ACT to PRE (minimum row-open time)
	TWR  int // write recovery before PRE
	TBL  int // burst length on the bus
	// TCloseIdle is the adaptive page policy's idle timeout: a row left open
	// this many cycles with no pending work is precharged in the background
	// (its tRP hides in the idle window). 0 disables auto-close.
	TCloseIdle int
}

// DefaultTiming returns the DDR3-1600-like constraint set.
func DefaultTiming() Timing {
	return Timing{TRCD: 11, TCL: 11, TRP: 11, TRAS: 28, TWR: 12, TBL: 4, TCloseIdle: 64}
}

// Validate reports the first non-positive constraint.
func (t Timing) Validate() error {
	checks := []struct {
		v    int
		name string
	}{
		{t.TRCD, "TRCD"}, {t.TCL, "TCL"}, {t.TRP, "TRP"},
		{t.TRAS, "TRAS"}, {t.TWR, "TWR"}, {t.TBL, "TBL"},
	}
	for _, c := range checks {
		if c.v <= 0 {
			return fmt.Errorf("memctrl: %s must be positive, got %d", c.name, c.v)
		}
	}
	if t.TRAS < t.TRCD {
		return fmt.Errorf("memctrl: TRAS %d must cover TRCD %d", t.TRAS, t.TRCD)
	}
	if t.TCloseIdle < 0 {
		return fmt.Errorf("memctrl: TCloseIdle must be non-negative, got %d", t.TCloseIdle)
	}
	return nil
}

// Request is one memory request presented to the controller.
type Request struct {
	Arrival int64 // cycle of arrival
	Row     int
	Write   bool

	// Filled by the controller.
	Start  int64 // cycle the bank begins serving it
	Finish int64 // cycle its data completes
	RowHit bool
}

// Latency returns the request's queuing + service latency in cycles.
func (r Request) Latency() int64 { return r.Finish - r.Arrival }

// Stats summarizes one controller run.
type Stats struct {
	Scheduler string

	Requests       int64
	Reads          int64
	Writes         int64
	RowHits        int64
	RowHitRate     float64
	AvgLatency     float64 // cycles
	P95Latency     int64   // cycles
	MaxLatency     int64   // cycles
	AvgReadLatency float64

	RefreshOps         int64
	RefreshBusyCycles  int64
	RefreshesPostponed int64 // elastic postponement steps taken
	// StalledByRefresh counts requests that arrived while a refresh held the
	// bank or queued behind one.
	StalledByRefresh int64

	Violations int

	// ECC classification of sub-limit refresh senses (populated when
	// Options.ECC is set).
	CorrectedErrors     int64
	UncorrectableErrors int64
	// FaultsInjected counts faults delivered by any core.FaultCounter in the
	// scheduler stack (internal/fault injectors).
	FaultsInjected int64
	// Guard carries the degradation controller's counters when a
	// core.GuardReporter (internal/guard) is in the scheduler stack.
	Guard core.GuardStats
	// Scrub carries the patrol scrubber's counters when Options.Scrub ran;
	// ScrubBusyCycles is the bank time its patrol reads consumed.
	Scrub           core.ScrubStats
	ScrubBusyCycles int64
}

// Options configures a run.
type Options struct {
	Timing   Timing
	TCK      float64 // seconds per cycle
	Duration float64 // simulated seconds

	// ElasticSlack enables elastic refresh (Stuecheli et al., MICRO'10 /
	// the JEDEC postpone allowance): a due refresh may be postponed while
	// requests are pending, by up to this fraction of the row's refresh
	// period (JEDEC allows 8 of 8192 tREFI slots, i.e. ~1/8 when debt is
	// concentrated). 0 disables postponement. The next refresh is scheduled
	// from the original due time, so debt does not accumulate. The charge
	// guardband absorbs the extra decay; the bank model verifies it.
	ElasticSlack float64

	// ECC, when set, classifies sub-limit refresh senses into corrected and
	// uncorrectable errors (same convention as sim.Options.ECC).
	ECC *ecc.ChargeClassifier
	// DemoteOnCorrect steps the row one rung down the degradation ladder on
	// an ECC-corrected error, when the scheduler supports core.Demoter.
	DemoteOnCorrect bool

	// Scrub, when set, interleaves the patrol scrubber's reads with demand
	// traffic on the command timeline: a patrol read behaves like a row-miss
	// read (closing the open row, occupying the bank for ACT+CAS+PRE), loses
	// arbitration ties to both refreshes and requests, and defers with the
	// scrubber's own backoff while the bank is busy.
	Scrub *scrub.Scrubber
}

// Run services the request stream against the bank under the refresh
// scheduler. Requests must be in arrival order. The returned per-request
// slice carries the individual latencies for distribution analysis.
func Run(bank *dram.Bank, sched core.Scheduler, reqs []Request, opts Options) (Stats, []Request, error) {
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
	horizon := int64(opts.Duration / opts.TCK)
	st := Stats{Scheduler: sched.Name()}
	monitor, _ := sched.(core.SenseMonitor)

	// Seed the refresh timeline (same golden-ratio stagger as internal/sim).
	q := newEventQueue(horizon, bank.Geom.Rows+1, len(reqs))
	for r := 0; r < bank.Geom.Rows; r++ {
		p := sched.Period(r)
		if p <= 0 {
			return Stats{}, nil, fmt.Errorf("memctrl: period for row %d is %g", r, p)
		}
		frac := staggerFrac(r)
		first := int64(frac * p / opts.TCK)
		q.push(event{cycle: first, kind: evRefresh, row: r, due: first})
	}
	if opts.Scrub != nil {
		if opts.Scrub.Rows() != bank.Geom.Rows {
			return Stats{}, nil, fmt.Errorf("memctrl: scrubber patrols %d rows, bank has %d", opts.Scrub.Rows(), bank.Geom.Rows)
		}
		q.push(event{cycle: int64(math.Ceil(opts.Scrub.NextDue() / opts.TCK)), kind: evScrub})
	}
	out := make([]Request, len(reqs))
	copy(out, reqs)
	var lastArrival int64 = -1
	for i := range out {
		if out[i].Arrival < lastArrival {
			return Stats{}, nil, fmt.Errorf("memctrl: request %d arrives out of order", i)
		}
		lastArrival = out[i].Arrival
		if out[i].Row < 0 || out[i].Row >= bank.Geom.Rows {
			return Stats{}, nil, fmt.Errorf("memctrl: request %d row %d out of range", i, out[i].Row)
		}
		if out[i].Arrival >= horizon {
			out = out[:i]
			break
		}
		q.pushRequest(out[i].Arrival)
	}

	// Bank state.
	t := opts.Timing
	bankFree := int64(0) // cycle the bank can accept the next command
	openRow := -1
	rowOpenedAt := int64(-1)
	pending := make([]int, 0, 64) // indices of queued requests
	lastRefreshEnd := int64(-1)   // cycle the most recent refresh released the bank

	// idleClose applies the adaptive page policy: a row idle past the
	// timeout has been precharged in the background by cycle `at`. The
	// earliest a background PRE could issue is after both the last burst
	// and the tRAS window; TCloseIdle (>= tRP) of further idleness hides
	// the precharge entirely.
	idleClose := func(at int64) {
		if openRow < 0 || t.TCloseIdle == 0 {
			return
		}
		preReady := bankFree
		if m := rowOpenedAt + int64(t.TRAS); m > preReady {
			preReady = m
		}
		if at-preReady >= int64(t.TCloseIdle) {
			openRow = -1
		}
	}

	// serveOne issues the best pending request at or after cycle `now`,
	// preferring row hits (FR-FCFS).
	serveOne := func(now int64) {
		if len(pending) == 0 {
			return
		}
		pick := 0
		if openRow >= 0 {
			for k, idx := range pending {
				if out[idx].Row == openRow {
					pick = k
					break
				}
			}
		}
		idx := pending[pick]
		pending = append(pending[:pick], pending[pick+1:]...)
		req := &out[idx]

		start := now
		if req.Arrival > start {
			start = req.Arrival
		}
		idleClose(start)
		var done int64
		if openRow == req.Row {
			req.RowHit = true
			st.RowHits++
			done = start + int64(t.TCL+t.TBL)
		} else {
			// Close the open row (respecting tRAS), open the new one.
			pre := start
			if openRow >= 0 {
				minPre := rowOpenedAt + int64(t.TRAS)
				if pre < minPre {
					pre = minPre
				}
				pre += int64(t.TRP)
			}
			act := pre
			done = act + int64(t.TRCD+t.TCL+t.TBL)
			openRow = req.Row
			rowOpenedAt = act
			start = act
		}
		if req.Write {
			done += int64(t.TWR)
		}
		req.Start = start
		req.Finish = done
		bankFree = done

		// The activation restored the row: tell the charge model and the
		// scheduler (VRL-Access exploits this).
		when := float64(start) * opts.TCK
		if !req.RowHit {
			if _, err := bank.Access(req.Row, dram.Ticks(when)); err == nil {
				sched.OnAccess(req.Row, when)
			}
		}
	}

	for ev, ok := q.pop(); ok; ev, ok = q.pop() {
		switch ev.kind {
		case evRefresh:
			// Elastic refresh: while requests are pending and slack remains,
			// serve the queued work and step the refresh back behind it.
			if opts.ElasticSlack > 0 && len(pending) > 0 {
				maxDelay := int64(opts.ElasticSlack * sched.Period(ev.row) / opts.TCK)
				deadline := ev.due + maxDelay
				if ev.cycle < deadline {
					for len(pending) > 0 && bankFree < deadline {
						now := bankFree
						if now < ev.cycle {
							now = ev.cycle
						}
						serveOne(now)
					}
					retry := bankFree
					if retry <= ev.cycle {
						retry = ev.cycle + 1
					}
					if retry > deadline {
						retry = deadline
					}
					st.RefreshesPostponed++
					q.push(event{cycle: retry, kind: evRefresh, row: ev.row, due: ev.due})
					continue
				}
			}
			// Drain any requests that can start strictly before the refresh.
			for len(pending) > 0 && bankFree < ev.cycle {
				before := bankFree
				serveOne(bankFree)
				if bankFree == before {
					break
				}
			}
			start := ev.cycle
			if bankFree > start {
				start = bankFree
			}
			idleClose(start)
			op := sched.RefreshOp(ev.row, float64(start)*opts.TCK)
			// Refresh implies closing the open row.
			if openRow >= 0 {
				minPre := rowOpenedAt + int64(t.TRAS)
				if start < minPre {
					start = minPre
				}
				start += int64(t.TRP)
				openRow = -1
			}
			when := float64(start) * opts.TCK
			res, err := bank.Refresh(ev.row, dram.Ticks(when), op.Alpha)
			if err != nil {
				return Stats{}, nil, err
			}
			if monitor != nil {
				monitor.OnSense(ev.row, when, res.ChargeBefore)
			}
			if opts.ECC != nil && res.ChargeBefore < retention.SenseLimit {
				switch opts.ECC.Classify(res.ChargeBefore) {
				case ecc.Corrected:
					st.CorrectedErrors++
					if opts.DemoteOnCorrect {
						if dm, ok := sched.(core.Demoter); ok {
							dm.Demote(ev.row)
						}
					}
				case ecc.Uncorrectable:
					st.UncorrectableErrors++
				}
			}
			bankFree = start + int64(op.Cycles)
			lastRefreshEnd = bankFree
			st.RefreshOps++
			st.RefreshBusyCycles += int64(op.Cycles)
			if len(pending) > 0 {
				st.StalledByRefresh += int64(len(pending))
			}
			// Schedule from the ORIGINAL due time so postponement debt does
			// not accumulate across periods.
			nextDue := ev.due + int64(sched.Period(ev.row)/opts.TCK)
			q.push(event{cycle: nextDue, kind: evRefresh, row: ev.row, due: nextDue})
		case evScrub:
			now := float64(ev.cycle) * opts.TCK
			visited, err := opts.Scrub.Tick(now, float64(bankFree)*opts.TCK)
			if err != nil {
				return Stats{}, nil, err
			}
			if visited {
				// The patrol read behaves like a row-miss read: close the open
				// row (respecting tRAS), then ACT + CAS + PRE on the weak row.
				start := ev.cycle
				idleClose(start)
				if openRow >= 0 {
					minPre := rowOpenedAt + int64(t.TRAS)
					if start < minPre {
						start = minPre
					}
					start += int64(t.TRP)
					openRow = -1
				}
				cost := int64(t.TRCD + t.TCL + t.TRP)
				bankFree = start + cost
				st.ScrubBusyCycles += cost
			}
			next := int64(math.Ceil(opts.Scrub.NextDue() / opts.TCK))
			if next <= ev.cycle {
				next = ev.cycle + 1
			}
			q.push(event{cycle: next, kind: evScrub})
		case evRequest:
			if ev.cycle < lastRefreshEnd {
				// Arrived while a refresh held the bank.
				st.StalledByRefresh++
			}
			pending = append(pending, ev.req)
			// Serve as much as possible while the bank is idle.
			for len(pending) > 0 {
				next := bankFree
				if next < ev.cycle {
					next = ev.cycle
				}
				if top, ok := q.peek(); ok && top.cycle <= next && top.kind == evRefresh {
					break // let the refresh in first
				}
				serveOne(next)
			}
		}
	}
	// Drain the queue after the last event.
	for len(pending) > 0 {
		serveOne(bankFree)
	}

	// Aggregate.
	var sum, sumRead int64
	var lats []int64
	for i := range out {
		r := out[i]
		st.Requests++
		if r.Write {
			st.Writes++
		} else {
			st.Reads++
			sumRead += r.Latency()
		}
		sum += r.Latency()
		lats = append(lats, r.Latency())
	}
	if st.Requests > 0 {
		st.AvgLatency = float64(sum) / float64(st.Requests)
		st.RowHitRate = float64(st.RowHits) / float64(st.Requests)
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		st.P95Latency = lats[int(float64(len(lats)-1)*0.95)]
		st.MaxLatency = lats[len(lats)-1]
	}
	if st.Reads > 0 {
		st.AvgReadLatency = float64(sumRead) / float64(st.Reads)
	}
	st.Violations = len(bank.Violations())
	if fc, ok := sched.(core.FaultCounter); ok {
		st.FaultsInjected = fc.FaultsInjected()
	}
	if gr, ok := sched.(core.GuardReporter); ok {
		st.Guard = gr.GuardSnapshot(opts.Duration)
	}
	if opts.Scrub != nil {
		st.Scrub = opts.Scrub.ScrubSnapshot(opts.Duration)
	}
	return st, out, nil
}

// staggerFrac mirrors internal/sim's golden-ratio refresh phase spread.
func staggerFrac(row int) float64 {
	const phi = 0.6180339887498949
	f := float64(row) * phi
	return f - float64(int64(f))
}

// RequestsFromTrace converts a row-granular trace into controller requests.
func RequestsFromTrace(recs []trace.Record, tck float64) []Request {
	out := make([]Request, 0, len(recs))
	for _, r := range recs {
		out = append(out, Request{
			Arrival: int64(r.Time/tck + 0.5),
			Row:     r.Row,
			Write:   r.Op == trace.Write,
		})
	}
	return out
}

// FprintStats renders a stats block.
func FprintStats(w io.Writer, st Stats) error {
	_, err := fmt.Fprintf(w,
		"scheduler=%s requests=%d rowhit=%.1f%% avg=%.1f cyc p95=%d cyc refreshes=%d busy=%d stalled=%d viol=%d\n",
		st.Scheduler, st.Requests, 100*st.RowHitRate, st.AvgLatency, st.P95Latency,
		st.RefreshOps, st.RefreshBusyCycles, st.StalledByRefresh, st.Violations)
	return err
}
