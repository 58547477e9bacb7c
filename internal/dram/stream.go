// Shared types of the fast-forward kernel (macro.go) and internal/sim's
// period lanes: the lane element and lane layout, the scheduler-side window
// config, the window result, and the per-row decay memo that stays warm
// across windows and runs.
package dram

import (
	"math"

	"vrldram/internal/retention"
)

// StreamEvent is one scheduled refresh: the queue element shared between
// internal/sim's period lanes and this kernel (sim aliases its event type to
// it, so lanes hand over with zero copying).
type StreamEvent struct {
	T   float64
	Row int
}

// RefreshLane is one period-keyed FIFO of scheduled refreshes. The
// unconsumed tail Events[Head:] is sorted by (time, row); Delta is the
// re-push period the lane is keyed by.
type RefreshLane struct {
	Delta  float64
	Events []StreamEvent
	Head   int
}

// StreamConfig is the scheduler side of a fast-forward window: the live
// decision columns (see core.StreamView; the slices alias scheduler state,
// and the kernel's RCount writes are the scheduler's own counter updates).
type StreamConfig struct {
	Period  float64   // shared refresh period when Periods is nil
	Periods []float64 // per-row refresh periods
	RCount  []int     // per-row partial-refresh counters; nil = always full
	MPRSF   []int     // per-row MPRSF (required when RCount is set)

	AlphaFull, AlphaPartial float64

	CyclesFull, CyclesPartial int
}

// StreamResult reports one RefreshMacro window.
type StreamResult struct {
	Events     int     // events consumed
	Fulls      int64   // full refreshes among them
	Partials   int64   // partial refreshes among them
	LastTime   float64 // time of the last consumed event (valid when Events > 0)
	LastCycles int     // busy cycles of the last consumed event
	// ChargeRestored is the caller's running accumulator after folding in
	// every consumed event's delta, in global event order - the threading
	// that keeps the non-associative float sum bit-identical to the scalar
	// runner's.
	ChargeRestored float64
	// Bailed reports the kernel refused the window before mutating
	// anything: some lane's shape is outside its verified lap structure (a
	// row whose period left its lane, a row queued twice, ragged lap
	// counts). Bank and lanes are untouched (Events is 0); the caller runs
	// the window another way.
	Bailed bool
}

// streamPair is one pinned (interval, factor) memo entry.
type streamPair struct {
	dt, f float64
}

// streamExt is a row's overflow decay memo: up to 8 pinned (dt, f) pairs,
// consulted only when the kernel's in-register MRU pair misses. A steady row's dt walks
// through a handful of distinct rounding values of fl(t+p)-t (the set grows
// at each binade crossing of t), which cycles - and cycling is the
// pathological pattern for small MRU memos, evicting each entry just before
// its reuse. Pinned first-seen entries are immune to that: after one lap
// through the distinct set every factor is served from here without an
// Exp2. Slots fill first-come and are never evicted until the row's
// retention changes; pairs are interleaved so the earliest-pinned (and
// most-revisited) entries resolve on the first cache line.
type streamExt struct {
	p [8]streamPair
}

// StreamScratch holds the kernel's per-window columns and decay memo. It is
// owned by the caller (internal/sim keeps one per Scratch) rather than the
// bank, so the decay memo survives across runs that share a Scratch but use
// fresh banks - a cold window pays one Exp2 per distinct (row, dt) pair,
// and a fleet of identically-profiled runs shares one warm memo. Sharing is
// safe across any mix of banks: factors depend only on (dt, tret), and the
// kernel resets any row whose retention differs from the shadow copy taken
// when its memo entries were filled. The zero value is ready to use.
type StreamScratch struct {
	ext  []streamExt
	tret []float64 // shadow of the bank's retention column keying the memo

	// Per-window columns: generated event times, restore deltas, and op
	// tags in lap-tiled layout, plus per-lane row-order metadata and the
	// duplicate-row detection epochs.
	times     []float64
	deltas    []float64
	ops       []byte
	mrows     []int32
	mnext     []float64
	mcnt      []int32
	seen      []int32
	seenEpoch int32
	macroViol []Violation
}

// MinLastRestore returns the earliest last-restore time across all rows: the
// left edge of the span a fast-forward window's decay intervals can reach
// back to, which is what a scenario modulator's nominal-window check must
// cover.
func (b *Bank) MinLastRestore() float64 {
	min := math.Inf(1)
	for _, t := range b.lastT {
		if t < min {
			min = t
		}
	}
	return min
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
// internal/scenario's Env implements it.
type SteadyModulator interface {
	Modulator
	NominalUntil(from float64) float64
}

// ensureMemo sizes the decay-memo columns (pinned overflow entries and the
// retention shadow that keys them) for the bank geometry, keeping warm
// entries when the geometry is unchanged.
func (sc *StreamScratch) ensureMemo(nRows int) {
	if len(sc.ext) == nRows {
		return
	}
	sc.ext = make([]streamExt, nRows)
	sc.tret = make([]float64, nRows)
	nan := math.NaN()
	for r := range sc.ext {
		sc.tret[r] = nan
		for i := range sc.ext[r].p {
			sc.ext[r].p[i].dt = nan
		}
	}
}
