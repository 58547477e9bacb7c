// Package sim is the event-driven refresh simulator: it replays a memory
// trace against a DRAM bank under a refresh scheduling policy, issuing each
// row's refreshes at its binned period and accounting the cycles the bank
// spends busy refreshing - the paper's Figure 4 metric.
package sim

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"

	"vrldram/internal/core"
	"vrldram/internal/dram"
	"vrldram/internal/ecc"
	"vrldram/internal/retention"
	"vrldram/internal/scrub"
	"vrldram/internal/trace"
)

// Backend selects the simulator's runner implementation, in the same spirit
// as the SPICE solver's banded/dense switch: the scalar per-event loop over
// a binary heap is the checked reference, and the auto runner - which keeps
// the events in per-period lanes, fast-forwards quiescent spans through
// dram.Bank.RefreshMacro and the periodic skip, and runs every other window
// event by event through the same per-event step as the reference - is
// bit-identical to it (Stats and checkpoint blobs; the backend equivalence
// tests and FuzzRunEquivalence pin this across schedulers, scrub modes,
// scenarios, and kill/resume points).
//
// The numeric values are part of the fleet manifest encoding; retired
// values (2-4 named the batch, batch-lut and fast-forward runners) are
// rejected by Validate rather than reused.
type Backend int

const (
	// BackendAuto is the lane runner with fast-forward: it is exact, so
	// there is no accuracy trade-off to opt into. Fast-forward engages on
	// its own whenever the run is eligible (no ECC classification, no sense
	// monitor, a streamable decay law, a steady scheduler and modulator).
	BackendAuto Backend = iota
	// BackendScalar forces the reference per-event loop.
	BackendScalar
)

// String returns the backend's CLI name.
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendScalar:
		return "scalar"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// Validate rejects any value that does not name a runner: a Backend can
// arrive from a decoded fleet manifest or a shard spec on the wire, where
// an out-of-range value must fail loudly instead of running some default.
func (b Backend) Validate() error {
	if b != BackendAuto && b != BackendScalar {
		return fmt.Errorf("undefined backend %d (valid: %s)", int(b), strings.Join(BackendNames(), ", "))
	}
	return nil
}

// BackendNames lists the valid CLI backend names in menu order.
func BackendNames() []string {
	return []string{"auto", "scalar"}
}

// ParseBackend maps a CLI name to its Backend. The empty string means Auto.
func ParseBackend(name string) (Backend, error) {
	switch name {
	case "", "auto":
		return BackendAuto, nil
	case "scalar":
		return BackendScalar, nil
	default:
		return 0, fmt.Errorf("unknown backend %q (valid: %s)", name, strings.Join(BackendNames(), ", "))
	}
}

// Options configures one simulation run.
type Options struct {
	Duration float64 // simulated time (s); the Figure 4 runs use the 768 ms bin hyperperiod
	TCK      float64 // DRAM clock period (s), for the overhead fraction

	// Backend selects the runner implementation; the zero value (Auto) runs
	// the exact lane runner with fast-forward.
	Backend Backend

	// ECC, when set, classifies every sub-limit sensing event into
	// correctable (single-bit) and uncorrectable errors instead of leaving
	// them as raw violations only.
	ECC *ecc.ChargeClassifier
	// UpgradeOnCorrect applies the AVATAR policy: when ECC corrects an error
	// in a row and the scheduler supports core.Upgrader, the row is demoted
	// to the fastest bin on the spot.
	UpgradeOnCorrect bool
	// DemoteOnCorrect generalizes UpgradeOnCorrect: when ECC corrects an
	// error and the scheduler supports core.Demoter (e.g. a guard.Guard in
	// the stack), the row steps one rung down the degradation ladder instead
	// of losing all of its slack at once.
	DemoteOnCorrect bool

	// Scrub, when set, interleaves an online patrol scrubber with the
	// refresh stream: patrol reads fire at the scrubber's own cadence
	// between refresh events (deferring with backoff while a refresh holds
	// the bank busy), and every ECC-classified sensing event is forwarded to
	// the scrubber's repair pipeline, which then owns the demote/upgrade
	// response (Demote/UpgradeOnCorrect are ignored). The scrubber must
	// cover the same number of rows as the bank, and it is included in
	// checkpoints, so checkpoint/resume stays bit-identical.
	Scrub *scrub.Scrubber

	// Scenario, when set, is the composed stress schedule the bank decays
	// under (an internal/scenario Env already attached to the bank via
	// SetModulator). The simulator does not drive it - stressors are pure
	// functions of time - but it is snapshotted into checkpoints and
	// validated on resume, so a run cannot silently resume under a
	// different schedule than the one that produced the snapshot.
	Scenario core.Snapshotter

	// CheckpointEvery, when positive, emits a Checkpoint to CheckpointSink
	// at every multiple of this simulated interval (seconds). Snapshots are
	// taken at event-queue boundaries, so resuming from one replays the
	// remaining events exactly as the uninterrupted run would have.
	CheckpointEvery float64
	// CheckpointSink receives periodic snapshots and, on cancellation, one
	// final snapshot of the state at the point the run stopped. A sink error
	// aborts the run. Required when CheckpointEvery > 0; checkpointing
	// requires the scheduler to implement core.Snapshotter.
	CheckpointSink func(*Checkpoint) error
	// Resume, when set, starts the run from the snapshot instead of from a
	// cold bank: the scheduler, bank, event queue, trace position, and
	// accumulated statistics are restored first. The bank, scheduler, and
	// trace source must be freshly constructed with the same configuration
	// that produced the snapshot.
	Resume *Checkpoint
}

// PendingEvent is one scheduled refresh in the simulator's event queue.
type PendingEvent struct {
	Time int64 // dram ticks
	Row  int
}

// Checkpoint is the complete resumable state of a run, captured at an event
// boundary: feeding it back through Options.Resume (with identically
// constructed bank, scheduler, and trace source) continues the run to the
// same Stats, bit for bit, as if it had never stopped. Stats holds the raw
// accumulators only; the derived diagnostics (Violations, Guard,
// FaultsInjected) are recomputed from live state when the resumed run
// finishes. internal/checkpoint serializes this struct to disk.
type Checkpoint struct {
	Time      int64   // simulated tick the snapshot was taken at
	Duration  float64 // the run's configured duration (s), for resume validation
	Scheduler string  // scheduler name, for resume validation

	Stats  Stats
	Events []PendingEvent // outstanding refresh events
	Bank   dram.State     // per-row charge, last-restore times, violations

	TraceRead     int64        // records consumed from the trace source
	HavePending   bool         // a look-ahead record is buffered
	Pending       trace.Record // the buffered look-ahead record
	LastTraceTime float64      // time-ordering watermark in record seconds (-Inf before any record)

	BusyUntil int64 // tick the bank is busy until (refresh in flight)

	SchedState []byte // the scheduler stack's core.Snapshotter blob
	ScrubState []byte // the patrol scrubber's core.Snapshotter blob (nil without one)
	// ScenarioState is the scenario Env's core.Snapshotter blob (nil when
	// the run had no composed stress schedule).
	ScenarioState []byte
}

// Stats is the outcome of one run.
type Stats struct {
	Scheduler string
	Duration  float64

	FullRefreshes    int64
	PartialRefreshes int64
	BusyCycles       int64 // cycles the bank was unavailable due to refresh
	Accesses         int64

	// ChargeRestored accumulates the normalized weakest-cell charge
	// delivered by refresh operations, as an exact fixed-point sum whose
	// value does not depend on the order of its terms; the power model
	// scales ChargeRestored.Float64() to array restore energy.
	ChargeRestored dram.ChargeSum

	Violations int // raw sub-limit sensing events (must be 0 for a safe policy)

	// ECC classification of the violations (populated when Options.ECC is
	// set): corrected + uncorrectable = violations attributable to sensing.
	CorrectedErrors     int64
	UncorrectableErrors int64
	RowsUpgraded        int64

	// FaultsInjected counts the faults delivered by any core.FaultCounter in
	// the scheduler stack or the trace source (internal/fault injectors).
	FaultsInjected int64
	// Guard carries the degradation controller's counters when a
	// core.GuardReporter (internal/guard) is in the scheduler stack.
	Guard core.GuardStats
	// Scrub carries the patrol scrubber's counters when Options.Scrub ran.
	Scrub core.ScrubStats
}

// Refreshes returns the total refresh operation count.
func (s Stats) Refreshes() int64 { return s.FullRefreshes + s.PartialRefreshes }

// OverheadFraction returns the fraction of time the bank was refreshing.
func (s Stats) OverheadFraction(tck float64) float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.BusyCycles) * tck / s.Duration
}

// refresh event queue -------------------------------------------------------

// event aliases dram.StreamEvent so the lane queue's period lanes can be
// handed to the fast-forward kernel (dram.Bank.RefreshMacro) without
// copying or converting.
type event = dram.StreamEvent

// eventQueue is the scalar reference's refresh event queue: a binary
// min-heap ordered by (time, row). It deliberately does NOT implement
// container/heap: that interface boxes every pushed and popped element into
// an interface{}, costing two heap allocations per refresh event in the
// simulator's hottest loop. The inlined sift functions below keep events on
// the slice. The (time, row) order is total - no two events share both
// fields - so the pop sequence is uniquely determined by the comparator and
// independent of the heap's internal layout.
type eventQueue []event

func (h eventQueue) less(i, j int) bool { return eventLess(h[i], h[j]) }

func (h eventQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventQueue) siftDown(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && h.less(right, left) {
			min = right
		}
		if !h.less(min, i) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// reset empties the queue, keeping its allocation.
func (h *eventQueue) reset() { *h = (*h)[:0] }

func (h *eventQueue) size() int { return len(*h) }

func (h *eventQueue) push(e event) {
	*h = append(*h, e)
	h.siftUp(len(*h) - 1)
}

// pushNext implements refreshQueue; the heap takes no advantage of the
// period hint.
func (h *eventQueue) pushNext(e event, _ int64) { h.push(e) }

func (h *eventQueue) pop() event {
	old := *h
	n := len(old) - 1
	top := old[0]
	old[0] = old[n]
	*h = old[:n]
	(*h).siftDown(0)
	return top
}

// peekTime returns the earliest outstanding event tick, or never when empty.
func (h *eventQueue) peekTime() int64 {
	if len(*h) == 0 {
		return never
	}
	return (*h)[0].T
}

// pendingSorted returns the outstanding events in canonical (time, row)
// order. Checkpoints store this form, so checkpoint blobs are independent of
// the queue implementation and of any queue-internal layout.
func (h *eventQueue) pendingSorted() []PendingEvent {
	out := make([]PendingEvent, len(*h))
	for i, e := range *h {
		out[i] = PendingEvent{Time: e.T, Row: e.Row}
	}
	sortPending(out)
	return out
}

// sortPending orders a checkpoint's event listing by (time, row).
func sortPending(out []PendingEvent) {
	slices.SortFunc(out, func(a, b PendingEvent) int {
		return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.Row, b.Row))
	})
}

// Scratch holds the simulator's reusable per-run allocations - the refresh
// event queues (the heap for the scalar backend, the period lanes for the
// auto one) and the fast-forward columns. A Scratch may be reused across any
// number of sequential runs; concurrent runs need one Scratch each. The zero
// value is usable.
type Scratch struct {
	queue eventQueue
	batch batchQueue

	// ffScratch is the fast-forward kernel's per-window row columns.
	ffScratch dram.StreamScratch
	// skip is the periodic skip's pair of boundary snapshots.
	skip periodicSkip
	// ffWindows counts fast-forward kernel windows executed by the last run,
	// ffBails the windows the kernel refused, and ffSkips the hyperperiods
	// the periodic skip jumped over (debug/observability counters,
	// deliberately NOT part of Stats - Stats must stay bit-identical across
	// backends).
	ffWindows, ffBails int
	ffSkips            int64
}

// refreshQueue is the queue contract shared by the scalar and auto
// runners; the prologue (initial fill, resume, checkpoint capture) runs
// against it so both backends share one implementation of everything that
// is not the hot loop.
type refreshQueue interface {
	reset()
	size() int
	push(event)
	// pushNext enqueues a re-push scheduled delta after the event being
	// processed; the lane queue uses the hint to keep per-period FIFO
	// lanes sorted by construction, the scalar queue ignores it.
	pushNext(e event, delta int64)
	pop() event
	peekTime() int64
	pendingSorted() []PendingEvent
}

// scratchPool recycles Scratch buffers across Run/RunContext calls, so
// callers run allocation-lean in steady state (sweep cells, benchmark
// loops, campaign experiments).
var scratchPool = sync.Pool{New: func() interface{} { return new(Scratch) }}

// staggerFrac spreads row refresh phases deterministically across their
// periods (real controllers spread refreshes across tREFI slots); the
// golden-ratio sequence avoids aligning rows that share a period.
func staggerFrac(row int) float64 {
	const phi = 0.6180339887498949
	// x - floor(x) is bit-identical to math.Mod(x, 1) for finite x >= 0
	// (the subtraction is exact by Sterbenz' lemma) and lets the compiler
	// use the hardware rounding instruction instead of the fmod kernel.
	x := float64(row) * phi
	return x - math.Floor(x)
}

// Run simulates the bank under the scheduler while replaying the trace
// source. Trace records and refreshes interleave in time order; accesses
// notify the scheduler (for VRL-Access) and fully restore the accessed row.
//
// On a mid-run error Run returns the partially-populated Stats accumulated
// so far alongside the error, so a failing run is still debuggable.
func Run(bank *dram.Bank, sched core.Scheduler, src trace.Source, opts Options) (Stats, error) {
	return RunContext(context.Background(), bank, sched, src, opts)
}

// RunContext is Run with cooperative cancellation and crash-safety: the
// context is checked at event-queue granularity, and a cancelled or
// deadline-exceeded run stops at the next event boundary, emits a final
// Checkpoint to Options.CheckpointSink (when one is configured), and
// returns the partial Stats with an error wrapping the context's. Use
// errors.Is(err, context.Canceled) to distinguish an interrupted run from a
// failed one.
func RunContext(ctx context.Context, bank *dram.Bank, sched core.Scheduler, src trace.Source, opts Options) (Stats, error) {
	scratch := scratchPool.Get().(*Scratch)
	st, err := runContext(ctx, bank, sched, src, opts, scratch)
	scratchPool.Put(scratch)
	return st, err
}

// runContext is the simulator proper; scratch supplies the reusable buffers.
func runContext(ctx context.Context, bank *dram.Bank, sched core.Scheduler, src trace.Source, opts Options, scratch *Scratch) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Duration <= 0 || dram.CheckSeconds("duration", opts.Duration) != nil {
		return Stats{}, fmt.Errorf("sim: duration must be positive and finite within the tick range, got %g", opts.Duration)
	}
	if !(opts.TCK > 0) || math.IsInf(opts.TCK, 1) {
		return Stats{}, fmt.Errorf("sim: TCK must be positive and finite, got %g", opts.TCK)
	}
	if err := opts.Backend.Validate(); err != nil {
		return Stats{}, fmt.Errorf("sim: %w", err)
	}
	if !(opts.CheckpointEvery >= 0) || math.IsInf(opts.CheckpointEvery, 1) {
		return Stats{}, fmt.Errorf("sim: CheckpointEvery must be non-negative and finite, got %g", opts.CheckpointEvery)
	}
	if opts.CheckpointEvery > 0 && opts.CheckpointEvery < dram.Tick {
		return Stats{}, fmt.Errorf("sim: CheckpointEvery %g is shorter than one %g s tick", opts.CheckpointEvery, dram.Tick)
	}
	if opts.CheckpointEvery > 0 && opts.CheckpointSink == nil {
		return Stats{}, fmt.Errorf("sim: CheckpointEvery set without a CheckpointSink")
	}
	if opts.Scrub != nil && opts.Scrub.Rows() != bank.Geom.Rows {
		return Stats{}, fmt.Errorf("sim: scrubber patrols %d rows, bank has %d", opts.Scrub.Rows(), bank.Geom.Rows)
	}
	var snap core.Snapshotter
	if opts.CheckpointSink != nil || opts.Resume != nil {
		var ok bool
		snap, ok = sched.(core.Snapshotter)
		if !ok {
			return Stats{}, fmt.Errorf("sim: scheduler %s does not implement core.Snapshotter; checkpoint/resume unavailable", sched.Name())
		}
		// Fail fast on stacks whose inner layers cannot snapshot (e.g. a
		// guard over a fault injector) instead of dying at the first
		// checkpoint boundary.
		if _, err := snap.SnapshotState(); err != nil {
			return Stats{}, fmt.Errorf("sim: scheduler state not snapshottable: %w", err)
		}
	}
	if src == nil {
		src = trace.Empty{}
	}
	st := Stats{Scheduler: sched.Name(), Duration: opts.Duration}
	// Every instant below is an int64 count of dram ticks; seconds from the
	// options, the trace, the scrubber and the scheduler are converted once,
	// where they enter.
	durT := dram.Ticks(opts.Duration)
	tckTicks := opts.TCK / dram.Tick
	busyTicks := func(cycles int) int64 { return int64(math.Round(float64(cycles) * tckTicks)) }
	periodTicks := func(row int, p float64) (int64, error) {
		if pt := dram.Ticks(p); pt > 0 {
			return pt, nil
		}
		return 0, fmt.Errorf("sim: scheduler period for row %d is %g, under one tick", row, p)
	}

	monitor, hasMonitor := sched.(core.SenseMonitor)
	// finalize fills the diagnostics that remain meaningful even when the
	// run aborts partway: the violations recorded so far, injected-fault
	// counts, and the guard's counters at tick now.
	finalize := func(now int64) {
		st.Violations = bank.ViolationCount()
		if fc, ok := sched.(core.FaultCounter); ok {
			st.FaultsInjected += fc.FaultsInjected()
		}
		if fc, ok := src.(core.FaultCounter); ok {
			st.FaultsInjected += fc.FaultsInjected()
		}
		if gr, ok := sched.(core.GuardReporter); ok {
			st.Guard = gr.GuardSnapshot(dram.Seconds(now))
		}
		if opts.Scrub != nil {
			st.Scrub = opts.Scrub.ScrubSnapshot(dram.Seconds(now))
		}
	}

	rows := bank.Geom.Rows
	// Backend split: both runners share the prologue, drains, checkpointing,
	// the per-event step and the epilogue through the refreshQueue
	// interface; only the queue and, for runs fast-forward can take, the
	// loop differ. BackendAuto is the lane runner - it is bit-identical to
	// the scalar reference, so there is nothing to trade away.
	auto := opts.Backend == BackendAuto
	var q refreshQueue
	if auto {
		q = &scratch.batch
	} else {
		q = &scratch.queue
	}
	q.reset()
	scratch.ffWindows, scratch.ffBails, scratch.ffSkips = 0, 0, 0
	sk := &scratch.skip
	sk.h = 0
	sk.reset()
	var (
		next          trace.Record
		nextT         int64 // next.Time in ticks
		havePending   bool
		lastTraceTime = math.Inf(-1)
		traceRead     int64 // records consumed from src, for checkpointing
		now           int64
		// The bank is unavailable for patrol reads until busyAt plus
		// busyCycles clock cycles: the last refresh's start and latency,
		// converted to ticks only where a reader needs busyUntil.
		busyAt     int64
		busyCycles int
	)
	busyUntil := func() int64 { return busyAt + busyTicks(busyCycles) }
	// readTrace takes the next look-ahead record from src.
	readTrace := func() error {
		var err error
		next, err = src.Next()
		havePending = err == nil
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		traceRead++
		if err := dram.CheckSeconds("sim: trace record time", next.Time); err != nil {
			return err
		}
		nextT = dram.Ticks(next.Time)
		return nil
	}

	if cp := opts.Resume; cp != nil {
		if cp.Duration != opts.Duration {
			return st, fmt.Errorf("sim: resume: checkpoint duration %g, options say %g", cp.Duration, opts.Duration)
		}
		if cp.Scheduler != sched.Name() {
			return st, fmt.Errorf("sim: resume: checkpoint is for scheduler %q, got %q", cp.Scheduler, sched.Name())
		}
		if (cp.ScrubState != nil) != (opts.Scrub != nil) {
			return st, fmt.Errorf("sim: resume: checkpoint and options disagree about a patrol scrubber")
		}
		if (cp.ScenarioState != nil) != (opts.Scenario != nil) {
			return st, fmt.Errorf("sim: resume: checkpoint and options disagree about a stress scenario")
		}
		if err := snap.RestoreState(cp.SchedState); err != nil {
			return st, fmt.Errorf("sim: resume: %w", err)
		}
		if opts.Scrub != nil {
			if err := opts.Scrub.RestoreState(cp.ScrubState); err != nil {
				return st, fmt.Errorf("sim: resume: %w", err)
			}
		}
		if opts.Scenario != nil {
			if err := opts.Scenario.RestoreState(cp.ScenarioState); err != nil {
				return st, fmt.Errorf("sim: resume: %w", err)
			}
		}
		if err := bank.SetState(cp.Bank); err != nil {
			return st, fmt.Errorf("sim: resume: %w", err)
		}
		st = cp.Stats
		st.Scheduler = sched.Name()
		st.Duration = opts.Duration
		// The queues and the fast-forward kernel rely on the one-
		// outstanding-event-per-row invariant; a corrupt checkpoint must
		// fail here, not silently diverge later.
		seenRow := make([]bool, rows)
		for _, ev := range cp.Events {
			if ev.Row < 0 || ev.Row >= rows {
				return st, fmt.Errorf("sim: resume: pending event for row %d outside [0,%d)", ev.Row, rows)
			}
			if seenRow[ev.Row] {
				return st, fmt.Errorf("sim: resume: duplicate pending event for row %d", ev.Row)
			}
			seenRow[ev.Row] = true
			q.push(event{T: ev.Time, Row: ev.Row})
		}
		// Re-position the (freshly opened) trace source by replaying the
		// records the checkpointed run had already consumed; the buffered
		// look-ahead record itself is restored from the snapshot verbatim.
		for i := int64(0); i < cp.TraceRead; i++ {
			if _, err := src.Next(); err != nil {
				if err == io.EOF {
					err = fmt.Errorf("sim: resume: trace ended after %d records, checkpoint consumed %d", i, cp.TraceRead)
				}
				finalize(cp.Time)
				return st, err
			}
		}
		traceRead = cp.TraceRead
		havePending = cp.HavePending
		next = cp.Pending
		if havePending {
			if err := dram.CheckSeconds("sim: resume: trace record time", next.Time); err != nil {
				return st, err
			}
			nextT = dram.Ticks(next.Time)
		}
		lastTraceTime = cp.LastTraceTime
		now = cp.Time
		busyAt = cp.BusyUntil
	} else {
		for r := 0; r < rows; r++ {
			p, err := periodTicks(r, sched.Period(r))
			if err != nil {
				return Stats{}, err
			}
			q.push(event{T: int64(staggerFrac(r) * float64(p)), Row: r})
		}
		// Trace look-ahead record. The readers in internal/trace enforce time
		// ordering themselves, but a custom Source is only trusted as far as
		// the check in drainTrace: a record whose timestamp precedes its
		// predecessor's would silently mis-interleave with the refresh
		// events, so it is an error.
		if err := readTrace(); err != nil {
			finalize(0)
			return st, err
		}
	}

	// scrubDue returns the scrubber's next patrol deadline in ticks. Each
	// deadline is rounded once, when it first appears, however many events
	// look at it before it falls due.
	dueS, dueT := math.NaN(), int64(0)
	scrubDue := func() int64 {
		if s := opts.Scrub.NextDue(); s != dueS {
			dueS, dueT = s, dram.Ticks(s)
		}
		return dueT
	}
	// drainScrub runs every patrol tick due at or before until, interleaved
	// with the trace so accesses and patrol reads stay in time order. It runs
	// BEFORE drainTrace(until) at each event, which keeps the invariant that a
	// patrol read never observes a bank mutation from its own future.
	var drainTrace func(until int64) error
	drainScrub := func(until int64) error {
		for opts.Scrub != nil {
			due := scrubDue()
			if due > until || due >= durT {
				return nil
			}
			if err := drainTrace(due); err != nil {
				return err
			}
			if _, err := opts.Scrub.Tick(dueS, dram.Seconds(busyUntil())); err != nil {
				return err
			}
		}
		return nil
	}

	drainTrace = func(until int64) error {
		for havePending && nextT <= until {
			if next.Time < lastTraceTime {
				return fmt.Errorf("sim: trace source out of order: record at t=%.9g after t=%.9g", next.Time, lastTraceTime)
			}
			lastTraceTime = next.Time
			if nextT >= durT {
				havePending = false
				break
			}
			if next.Row >= 0 && next.Row < rows {
				if _, _, err := bank.Access(next.Row, nextT, 0); err != nil {
					return err
				}
				sched.OnAccess(next.Row, next.Time)
				st.Accesses++
			}
			if err := readTrace(); err != nil {
				return err
			}
		}
		return nil
	}

	// capture snapshots the run's state at an event boundary. It is
	// read-only, so taking (or not taking) a snapshot cannot perturb the
	// simulation - the property the resume-equivalence tests rely on.
	capture := func(at int64) (*Checkpoint, error) {
		blob, err := snap.SnapshotState()
		if err != nil {
			return nil, err
		}
		cp := &Checkpoint{
			Time:          at,
			Duration:      opts.Duration,
			Scheduler:     sched.Name(),
			Stats:         st,
			Events:        q.pendingSorted(),
			Bank:          bank.State(),
			TraceRead:     traceRead,
			HavePending:   havePending,
			LastTraceTime: lastTraceTime,
			BusyUntil:     busyUntil(),
			SchedState:    blob,
		}
		if opts.Scrub != nil {
			if cp.ScrubState, err = opts.Scrub.SnapshotState(); err != nil {
				return nil, err
			}
		}
		if opts.Scenario != nil {
			if cp.ScenarioState, err = opts.Scenario.SnapshotState(); err != nil {
				return nil, err
			}
		}
		if havePending {
			cp.Pending = next
		}
		return cp, nil
	}

	// Checkpoint boundaries sit at the ticks of CheckpointEvery*k for k = 1,
	// 2, ...; cpK is the next boundary's index. Each boundary is one product
	// rather than a running sum, so a resumed run - which starts the cadence
	// from the snapshot's tick - lands on the uninterrupted run's boundaries.
	nextCP, cpK := never, 0.0
	cpTick := func(k float64) int64 { return dram.Ticks(opts.CheckpointEvery * k) }
	if opts.CheckpointEvery > 0 {
		// The next boundary is the first one strictly past the start: every
		// boundary at or below an event the run processed was already taken.
		cpK = math.Floor(dram.Seconds(now)/opts.CheckpointEvery) + 1
		for cpK > 1 && cpTick(cpK-1) > now {
			cpK--
		}
		for cpTick(cpK) <= now {
			cpK++
		}
		nextCP = cpTick(cpK)
	}

	// processEvent runs one refresh event - the scheduler's Algorithm 1
	// decision, sense+restore through the scalar bank path, scheduler
	// feedback, ECC classification and repair routing, accounting, and the
	// row's next refresh. It is the one per-event step of both backends:
	// the scalar loop runs every event through it, the auto loop every
	// event of a window the fast-forward kernel does not take.
	processEvent := func(ev event) error {
		row, t := ev.Row, ev.T
		op := sched.RefreshOp(row, dram.Seconds(t))
		res, err := bank.Refresh(row, t, op.Alpha)
		if err != nil {
			return err
		}
		if hasMonitor {
			// Report before rescheduling so a demotion or promotion decided
			// here shapes the row's very next refresh interval.
			monitor.OnSense(row, dram.Seconds(t), res.ChargeBefore)
		}
		if opts.ECC != nil && res.ChargeBefore < retention.SenseLimit {
			outcome := opts.ECC.Classify(res.ChargeBefore)
			switch outcome {
			case ecc.Corrected:
				st.CorrectedErrors++
			case ecc.Uncorrectable:
				st.UncorrectableErrors++
			}
			if opts.Scrub != nil {
				// The scrubber owns the repair response: a classified sense is
				// a detection event exactly like a patrol read, so the pipeline
				// converges no matter which path sees the sag first.
				if err := opts.Scrub.OnEccEvent(row, outcome); err != nil {
					return err
				}
			} else if outcome == ecc.Corrected {
				if opts.DemoteOnCorrect {
					if dm, ok := sched.(core.Demoter); ok {
						dm.Demote(row)
					}
				} else if opts.UpgradeOnCorrect {
					if up, ok := sched.(core.Upgrader); ok {
						up.Upgrade(row)
						st.RowsUpgraded++
					}
				}
			}
		}
		if op.Full {
			st.FullRefreshes++
		} else {
			st.PartialRefreshes++
		}
		st.BusyCycles += int64(op.Cycles)
		st.ChargeRestored.Add(res.ChargeRestored)
		busyAt, busyCycles = t, op.Cycles
		// The period is read after any demotion this event's ECC outcome
		// just applied.
		p, err := periodTicks(row, sched.Period(row))
		if err != nil {
			return err
		}
		q.pushNext(event{T: t + p, Row: row}, p)
		return nil
	}

	// Fast-forward eligibility is a run-level property: every dynamic
	// mutation path into the refresh pipeline must be statically absent
	// (monitors and ECC can reshape schedules mid-flight; a non-streamable
	// decay or an opaque modulator would change the arithmetic) and the
	// scheduler must expose both its stability horizon and its decision
	// columns. Per-window caps (trace, scrub, checkpoints, scenario change-
	// points) are then handled by the horizon computation inside the loop.
	// A run that is not eligible - the scalar backend, or an auto run with
	// ECC, a sense monitor such as the guard, a non-streamable bank or a
	// scheduler or modulator that is not steady - runs the reference
	// per-event loop, over the lane queue on the auto backend.
	ffEligible := auto && opts.ECC == nil && !hasMonitor && bank.Streamable()
	var (
		ffSteady core.SteadyScheduler
		ffMod    dram.SteadyModulator
		ffCfg    dram.StreamConfig
	)
	if ffEligible {
		steady, okS := sched.(core.SteadyScheduler)
		streamer, okV := sched.(core.OpStreamer)
		if !okS || !okV {
			ffEligible = false
		} else {
			ffSteady = steady
			view := streamer.StreamView()
			ffCfg = dram.StreamConfig{
				Period:        view.Period,
				Periods:       view.Periods,
				RCount:        view.RCount,
				MPRSF:         view.MPRSF,
				AlphaFull:     view.Full.Alpha,
				CyclesFull:    view.Full.Cycles,
				AlphaPartial:  view.Partial.Alpha,
				CyclesPartial: view.Partial.Cycles,
			}
		}
		if mod := bank.ActiveModulator(); mod != nil && ffEligible {
			sm, ok := mod.(dram.SteadyModulator)
			if !ok {
				ffEligible = false
			} else {
				ffMod = sm
			}
		}
	}

	bq := &scratch.batch
	done := ctx.Done()
	for q.size() > 0 {
		select {
		case <-done:
			err := ctx.Err()
			// A final snapshot lets the caller persist the state the run
			// stopped in, so an interrupted run resumes instead of restarts.
			if opts.CheckpointSink != nil {
				cp, cerr := capture(now)
				if cerr == nil {
					cerr = opts.CheckpointSink(cp)
				}
				if cerr != nil {
					finalize(now)
					return st, fmt.Errorf("sim: final checkpoint at t=%.6g: %v (run cancelled: %w)", dram.Seconds(now), cerr, err)
				}
			}
			finalize(now)
			return st, fmt.Errorf("sim: cancelled at t=%.6g: %w", dram.Seconds(now), err)
		default:
		}
		for opts.CheckpointSink != nil && nextCP < durT && q.peekTime() >= nextCP {
			cp, err := capture(nextCP)
			if err == nil {
				err = opts.CheckpointSink(cp)
			}
			if err != nil {
				finalize(now)
				return st, fmt.Errorf("sim: checkpoint at t=%.6g: %w", dram.Seconds(nextCP), err)
			}
			cpK++
			nextCP = cpTick(cpK)
		}
		if !ffEligible {
			// The reference per-event loop: the scalar backend's, and the
			// auto backend's whenever fast-forward is statically off, where
			// windows would only add bookkeeping around the same steps.
			ev := q.pop()
			if ev.T >= durT {
				// The queue minimum is past the run window, so every
				// outstanding event is: the run is over.
				break
			}
			now = ev.T
			if err := drainScrub(ev.T); err != nil {
				finalize(ev.T)
				return st, err
			}
			if err := drainTrace(ev.T); err != nil {
				finalize(ev.T)
				return st, err
			}
			if err := processEvent(ev); err != nil {
				finalize(ev.T)
				return st, err
			}
			continue
		}

		// Fast-forward the window when the kernel can take it, else run it
		// event by event up to the nearest non-refresh boundary. The
		// window's horizon is capped below every boundary where non-refresh
		// activity (a checkpoint, a patrol tick, a trace record) could
		// interleave, so those drains run only between windows.
		tFirst := q.peekTime()
		if tFirst >= durT {
			// tFirst is the queue minimum, so no outstanding event can fire
			// inside the run window anymore.
			break
		}
		if err := drainScrub(tFirst); err != nil {
			finalize(tFirst)
			return st, err
		}
		if err := drainTrace(tFirst); err != nil {
			finalize(tFirst)
			return st, err
		}
		// Compose the quiescence horizon: nothing non-refresh may be able
		// to fire strictly below it. Sources that do not apply contribute
		// never; the scheduler contributes its own stability bound.
		cpCap, scrubCap, traceNext := never, never, never
		if opts.CheckpointSink != nil {
			cpCap = nextCP
		}
		if opts.Scrub != nil {
			scrubCap = scrubDue()
		}
		if havePending {
			traceNext = nextT
		}
		hf := ffHorizon(durT, cpCap, scrubCap, traceNext, dram.Ticks(ffSteady.StablePeriodUntil(-1, dram.Seconds(tFirst))))
		// Seeds and resumed events enter through the mixed intake, where
		// no lane shows their periods; moving them into their period
		// lanes first lets the very first window fast-forward.
		bq.adoptMixed(ffCfg.Period, ffCfg.Periods)
		// Engagement gate, purely a cost heuristic (any choice keeps the
		// output bit-identical): the kernel pays a full scan of every
		// lane row per window, so a window too short for even one lap of
		// the densest lane - the norm on trace-dense runs, where the next
		// record caps the horizon microseconds away - must go straight to
		// the per-event path instead of thrashing that scan per record.
		minLap := ffMinLap(bq.lanes)
		if ffMod != nil && hf-tFirst >= minLap {
			// The scenario must be exactly nominal over every decay
			// interval the window can evaluate, which reach back to the
			// oldest last-restore time, not just to tFirst. Its cap can
			// only lower hf, so a window the gate already refuses skips
			// the row scan behind MinLastRestore.
			if u := dram.Ticks(ffMod.NominalUntil(dram.Seconds(bank.MinLastRestore()))); u < hf {
				hf = u
			}
		}
		if ffMod == nil && hf-tFirst >= minLap {
			// Periodic skip: a chain of kernel windows that reached its
			// hyperperiod boundary with nothing external due may jump
			// whole repeated hyperperiods (skip.go).
			if k := sk.arrive(tFirst, hf, bank, bq, &ffCfg, &st, busyUntil()); k > 0 {
				d := k * sk.h
				bank.Advance(d)
				bq.advance(d)
				busyAt += d
				now += d
				scratch.ffSkips += k
				continue // the jump may have reached a checkpoint or the run's end
			}
		}
		if hf-tFirst >= minLap && bq.mixedQuietBelow(hf) {
			hw, capped := hf, false
			if ffMod == nil {
				hw, capped = sk.plan(tFirst, hf, &ffCfg, rows)
			}
			res, err := bank.RefreshMacro(&scratch.ffScratch, bq.lanes, hw, &ffCfg)
			if err != nil {
				finalize(now)
				return st, err
			}
			if res.Events > 0 {
				// The kernel replayed res.Events iterations of the
				// refresh pipeline; fold its accounting into Stats
				// exactly as the per-event tail would have. Every
				// accumulator is an integer sum, so the bulk sums are
				// exact.
				st.FullRefreshes += res.Fulls
				st.PartialRefreshes += res.Partials
				st.BusyCycles += res.Fulls*int64(ffCfg.CyclesFull) + res.Partials*int64(ffCfg.CyclesPartial)
				st.ChargeRestored = st.ChargeRestored.Plus(res.ChargeRestored)
				busyAt, busyCycles = res.LastTime, res.LastCycles
				now = res.LastTime
				scratch.ffWindows++
				sk.armed = capped
				continue
			}
			if res.Bailed {
				scratch.ffBails++
			}
			// No events: either the kernel refused a lane shape outside
			// its verified structure (Bailed, with bank and lanes
			// untouched) or the lanes held nothing below hw after all.
			// Either way the per-event path below takes this window and
			// guarantees progress; a single step here would re-attempt
			// the kernel once per event.
		}
		// Any window the kernel does not take breaks the skip's chain.
		sk.reset()
		h := durT
		if durT-tFirst > batchWindow {
			h = tFirst + batchWindow
		}
		if opts.CheckpointSink != nil && nextCP < h {
			h = nextCP
		}
		if opts.Scrub != nil {
			if due := scrubDue(); due < h {
				h = due
			}
		}
		if havePending && nextT < h {
			h = nextT
		}
		// Every cap on h sits strictly above tFirst (the drains above
		// consumed anything due at tFirst), so the window makes progress.
		// Re-pushes of rows whose period is shorter than the window land
		// back inside it and pop in their (time, row) turn.
		for {
			ev, ok := bq.popBefore(h)
			if !ok {
				break
			}
			now = ev.T
			if err := processEvent(ev); err != nil {
				finalize(ev.T)
				return st, err
			}
		}
	}
	if err := drainScrub(durT); err != nil {
		finalize(durT)
		return st, err
	}
	if err := drainTrace(durT); err != nil {
		finalize(durT)
		return st, err
	}
	// Closing integrity sweep: every row must still be sensable. A failed
	// sweep still returns the diagnostics accumulated so far.
	if _, err := bank.CheckAll(durT); err != nil {
		finalize(durT)
		return st, err
	}
	finalize(durT)
	return st, nil
}
