// Shared types of the fast-forward kernel (macro.go) and internal/sim's
// period lanes: the lane element and lane layout, the scheduler-side window
// config, the window result, and the kernel's reusable scratch.
package dram

import (
	"math"

	"vrldram/internal/retention"
)

// StreamEvent is one scheduled refresh: the queue element shared between
// internal/sim's period lanes and this kernel (sim aliases its event type to
// it, so lanes hand over with zero copying).
type StreamEvent struct {
	T   int64 // ticks
	Row int
}

// RefreshLane is one period-keyed FIFO of scheduled refreshes. The
// unconsumed tail Events[Head:] is sorted by (time, row); Delta is the
// re-push period in ticks the lane is keyed by.
type RefreshLane struct {
	Delta  int64
	Events []StreamEvent
	Head   int
}

// StreamConfig is the scheduler side of a fast-forward window: the live
// decision columns (see core.StreamView; the slices alias scheduler state,
// and the kernel's RCount writes are the scheduler's own counter updates).
type StreamConfig struct {
	Period  int64   // shared refresh period in ticks when Periods is nil
	Periods []int64 // per-row refresh periods in ticks
	RCount  []int   // per-row partial-refresh counters; nil = always full
	MPRSF   []int   // per-row MPRSF (required when RCount is set)

	AlphaFull, AlphaPartial float64

	CyclesFull, CyclesPartial int
}

// StreamResult reports one RefreshMacro window.
type StreamResult struct {
	Events     int64 // events consumed
	Fulls      int64 // full refreshes among them
	Partials   int64 // partial refreshes among them
	LastTime   int64 // tick of the last consumed event (valid when Events > 0)
	LastCycles int   // busy cycles of the last consumed event
	// ChargeRestored is the exact sum of every consumed event's delta.
	ChargeRestored ChargeSum
	// Bailed reports the kernel refused the window before mutating
	// anything: some lane's shape is outside its verified prefix structure
	// (a row whose period left its lane, a row queued twice, ragged lap
	// counts). Bank and lanes are untouched (Events is 0); the caller runs
	// the window another way.
	Bailed bool
}

// StreamScratch holds the kernel's per-window row columns, O(rows) and
// independent of the window's span. The zero value is ready to use.
type StreamScratch struct {
	plan      []macroLane
	mrows     []int32
	mcnt      []int64
	next      []StreamEvent
	seen      []int32
	seenEpoch int32
	macroViol []Violation
}

// MinLastRestore returns the earliest last-restore tick across all rows: the
// left edge of the span a fast-forward window's decay intervals can reach
// back to, which is what a scenario modulator's nominal-window check must
// cover.
func (b *Bank) MinLastRestore() int64 {
	min := int64(math.MaxInt64)
	for _, t := range b.lastT {
		if t < min {
			min = t
		}
	}
	return min
}

// Columns returns the bank's live per-row charge, last-restore and retired
// columns, for read-only comparison by the simulator's periodic skip. The
// caller must not modify them.
func (b *Bank) Columns() (charge []float64, lastT []int64, retired []bool) {
	return b.charge, b.lastT, b.retired
}

// Advance moves every row's last restore d ticks later: the periodic skip's
// jump over whole hyperperiods whose state repeats exactly.
func (b *Bank) Advance(d int64) {
	for r := range b.lastT {
		b.lastT[r] += d
	}
}

// Streamable reports whether the bank's decay configuration is one the
// fast-forward kernel reproduces exactly: the plain exponential law with no VRT
// process. A scenario modulator is handled separately - see SteadyModulator.
func (b *Bank) Streamable() bool {
	_, exp := b.Decay.(retention.ExpDecay)
	return exp && b.VRT == nil
}

// ActiveModulator returns the attached scenario modulator, if any.
func (b *Bank) ActiveModulator() Modulator { return b.mod }

// SteadyModulator is an optional Modulator capability the fast-forward
// engine keys on: NominalUntil(from) returns the end of the nominal window
// containing from - the largest T such that over every [t0, t1] inside
// [from, T) the modulation is exactly the identity, DecayFactor(row, tret,
// t0, t1, base) == base.Factor(t1-t0, tret) bit for bit (every scale is 1
// AND no change-point splits the segment walk, since even a scale-1 split
// changes the float product). A return <= from means "not nominal now".
// Times are seconds. internal/scenario's Env implements it.
type SteadyModulator interface {
	Modulator
	NominalUntil(from float64) float64
}
