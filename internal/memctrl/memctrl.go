// Package memctrl is a command-level DRAM memory controller model: the layer
// that turns the paper's refresh-overhead numbers into end-performance
// impact. A bank is unavailable while a refresh operation is in flight
// (the tRFC window the paper shrinks), so pending reads and writes queue up
// behind it; this model measures by how much.
//
// The controller is one FR-FCFS event loop over banks × subarrays, each a
// service unit with its own row buffer:
//
//   - an open-row (row buffer) policy with ACT/PRE/CAS timing,
//   - row-hit-first scheduling among queued requests,
//   - refresh operations injected by a core.Scheduler at each row's binned
//     refresh instant, blocking the unit (per-bank refresh) or every unit
//     (all-bank refresh) for the operation's tRFC,
//   - charge tracking through the dram.Bank model, so a mis-scheduled
//     refresh policy still surfaces as data-integrity violations here.
//
// Run drives one bank, RunSALP one bank split into subarrays and RunMulti
// a rank of banks.
//
// Latencies are in DRAM clock cycles, consistent with the rest of the
// repository (tCK from device.Params).
package memctrl

import (
	"fmt"

	"vrldram/internal/core"
	"vrldram/internal/dram"
	"vrldram/internal/ecc"
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
	Bank    int   // RunMulti's bank index; 0 for Run and RunSALP
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
// scheduler. Requests must be in arrival order and address bank 0. The
// returned per-request slice carries the individual latencies for
// distribution analysis.
func Run(bank *dram.Bank, sched core.Scheduler, reqs []Request, opts Options) (Stats, []Request, error) {
	st, out, err := run([]*dram.Bank{bank}, []core.Scheduler{sched}, reqs, opts, 1, PerBankRefresh)
	if err != nil {
		return Stats{}, nil, err
	}
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
