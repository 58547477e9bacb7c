package sim

import "math"

// Fast-forward planning: the pure arithmetic the BackendFastForward runner
// uses to decide how far a quiescent window may extend and how much lane
// capacity a skip needs. Kept free of simulator state so the fuzz target
// (FuzzFastForwardPlan) can hammer it with arbitrary triples.

// ffSkipMax bounds a single planned skip count. 2^50 refresh cycles is far
// beyond any representable run (a device-year at the fastest JEDEC period is
// ~5e8 cycles); the bound exists so float -> int conversion below never hits
// values outside int range, which Go leaves implementation-defined.
const ffSkipMax = 1 << 50

// ffHorizon returns the earliest of the candidate fast-forward caps: the run
// duration, the next checkpoint boundary, the next scrub sweep, the next
// trace record, and the scheduler/scenario stability horizon. Callers pass
// +Inf for sources that do not apply; the result is the largest time the
// kernel may process events strictly below without any non-refresh
// machinery being able to intervene.
func ffHorizon(duration, nextCP, scrubDue, traceNext, stableUntil float64) float64 {
	h := duration
	if nextCP < h {
		h = nextCP
	}
	if scrubDue < h {
		h = scrubDue
	}
	if traceNext < h {
		h = traceNext
	}
	if stableUntil < h {
		h = stableUntil
	}
	return h
}

// ffWindowEvents is the event budget of one fast-forward window. The macro
// kernel buffers a time, a restore delta and an op per window event before
// its global merge, so an uncapped window on a quiet device sizes those
// columns to the whole run; capping every window near this many events keeps
// them at a few MiB - flat in simulated span and close to L2-sized - while
// each window still amortizes the kernels' per-window lane scans (2^16 made
// those scans dominate; 2^20 was no faster and twice the memory).
const ffWindowEvents = 1 << 18

// ffBudgetHorizon returns the event-budget cap on a fast-forward window
// starting at t: t plus the span in which the lanes' combined refresh rate
// (each lane replays its unconsumed rows once per period) produces about
// ffWindowEvents events, floored at the longest non-empty lane period so
// every lane still gets a full lap and the engagement gate (ffMinLap) keeps
// passing. The cap is exact by construction: the kernels consume every
// event below any horizon in global (time, row) order, so cutting a span
// into budget-sized windows replays the same event sequence. Returns +Inf
// when no lane holds events, a non-empty lane's period is degenerate (the
// gate refuses such windows anyway), or t is not a finite time.
func ffBudgetHorizon(lanes []batchLane, t float64) float64 {
	rate, longest := 0.0, 0.0
	for i := range lanes {
		l := &lanes[i]
		n := len(l.Events) - l.Head
		if n == 0 {
			continue
		}
		if !(l.Delta > 0) {
			return math.Inf(1)
		}
		rate += float64(n) / l.Delta
		if l.Delta > longest {
			longest = l.Delta
		}
	}
	if longest == 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return math.Inf(1)
	}
	span := max(ffWindowEvents/rate, longest)
	h := t + span
	if !(h > t) {
		// span is below half of t's rounding step; one ulp keeps the cap
		// strictly above t (and still at least one lap past it).
		h = math.Nextafter(t, math.Inf(1))
	}
	return h
}

// ffSkip returns the number of whole refresh cycles of the given period that
// fit strictly below horizon starting from t: the largest k >= 0 with
// t + k*period < horizon, computed against the same float arithmetic the
// event queue will actually perform (t + float64(k)*period), so the plan
// never promises a skip whose final event lands on or past the horizon.
// Degenerate inputs (non-positive or NaN period, t already at or past the
// horizon) plan zero skips.
func ffSkip(t, period, horizon float64) int {
	if !(period > 0) || !(t < horizon) {
		return 0
	}
	r := (horizon - t) / period
	k := ffSkipMax
	if r < ffSkipMax {
		k = int(r)
	}
	// The division is one rounding away from the repeated-add reality on
	// either side - and arbitrarily far off when horizon-t overflows to
	// +Inf, where the estimate saturates. Bisect the saturated estimate
	// down onto the actual expression (t itself is below the horizon, so
	// k=0 always qualifies), then settle the last rounding steps linearly.
	if !(t+float64(k)*period < horizon) {
		lo, hi := 0, k
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if t+float64(mid)*period < horizon {
				lo = mid
			} else {
				hi = mid
			}
		}
		k = lo
	}
	for k > 0 && !(t+float64(k)*period < horizon) {
		k--
	}
	for k < ffSkipMax && t+float64(k+1)*period < horizon {
		k++
	}
	return k
}

// ffMinLap returns the smallest refresh period among lanes holding
// unconsumed events - the shortest window span in which a fast-forward
// kernel can replay at least one full lap of some lane. Windows narrower
// than this cannot amortize the kernels' per-window full-lane scans, so the
// runner skips the attempt (+Inf when no lane holds events, or a lane's
// period is degenerate, which sends the window to the batch path).
func ffMinLap(lanes []batchLane) float64 {
	min := math.Inf(1)
	for i := range lanes {
		l := &lanes[i]
		if l.Head >= len(l.Events) {
			continue
		}
		if !(l.Delta > 0) {
			return math.Inf(1)
		}
		if l.Delta < min {
			min = l.Delta
		}
	}
	return min
}

// ffGrowLanes pre-sizes each lane's buffer for a fast-forward window so the
// kernel's in-place compaction (which needs spare capacity to absorb a lap's
// re-pushes) does not fall into per-append growth. The heuristic: a lane
// re-pushes once per consumed event, and consumes at most laps = ffSkip full
// rotations of its unconsumed tail, but capacity only ever needs to hold one
// rotation plus slack - pops balance pushes, so occupancy never exceeds the
// unconsumed count. Growth is capped to keep a pathological period from
// hoarding memory.
func ffGrowLanes(lanes []batchLane, horizon float64) {
	for i := range lanes {
		l := &lanes[i]
		n := len(l.Events) - l.Head
		if n == 0 {
			continue
		}
		laps := ffSkip(l.Events[l.Head].T, l.Delta, horizon)
		if laps == 0 {
			continue
		}
		want := 2*n + 64
		if max := 4*n + 1024; want > max {
			want = max
		}
		if cap(l.Events) >= want {
			continue
		}
		grown := make([]event, len(l.Events)-l.Head, want)
		copy(grown, l.Events[l.Head:])
		l.Events = grown
		l.Head = 0
	}
}

// mixedQuietBelow reports whether the mixed intake holds no event strictly
// below h - the precondition for handing the period lanes alone to the
// fast-forward kernel, which cannot merge the mixed lane.
func (bq *batchQueue) mixedQuietBelow(h float64) bool {
	if bq.mixedHead >= len(bq.mixed) {
		return true
	}
	bq.ensureMixedSorted()
	return !(bq.mixed[bq.mixedHead].T < h)
}

// ffInf is the "source does not apply" horizon.
func ffInf() float64 { return math.Inf(1) }

// adoptMixed moves every unconsumed mixed-intake event into the period lane
// its row's current refresh period keys, so a run whose queue was seeded
// through the mixed intake (initial stagger, resume) can fast-forward from
// its very first window instead of waiting for the batch path to drain the
// seeds. It reports whether the mixed intake is now empty.
//
// Safe only when every lane is empty: the mixed intake is globally sorted,
// so each period's subsequence is itself sorted and every lane it builds is
// ordered by construction; with a non-empty lane an early mixed event could
// land behind the lane's tail. The move preserves the queue's event
// multiset and count, so pendingSorted (and with it every checkpoint) is
// unchanged.
func (bq *batchQueue) adoptMixed(period float64, periods []float64) bool {
	if bq.mixedHead >= len(bq.mixed) {
		return true
	}
	for i := range bq.lanes {
		if bq.lanes[i].Head < len(bq.lanes[i].Events) {
			return false
		}
	}
	bq.ensureMixedSorted()
	// Precheck the whole move before mutating anything: every event's period
	// must be a usable lane key, and the distinct periods (plus recyclable
	// empty lanes) must fit the lane cap.
	var deltas [batchMaxLanes]float64
	nd := 0
	for i := range bq.lanes {
		deltas[nd] = bq.lanes[i].Delta
		nd++
	}
precheck:
	for _, e := range bq.mixed[bq.mixedHead:] {
		p := period
		if periods != nil {
			if uint(e.Row) >= uint(len(periods)) {
				return false
			}
			p = periods[e.Row]
		}
		if math.IsNaN(p) {
			return false
		}
		for i := 0; i < nd; i++ {
			if deltas[i] == p {
				continue precheck
			}
		}
		if nd == batchMaxLanes {
			return false
		}
		deltas[nd] = p
		nd++
	}
	for _, e := range bq.mixed[bq.mixedHead:] {
		p := period
		if periods != nil {
			p = periods[e.Row]
		}
		li := -1
		for i := range bq.lanes {
			if bq.lanes[i].Delta == p {
				li = i
				break
			}
		}
		if li < 0 {
			if cap(bq.lanes) > len(bq.lanes) {
				bq.lanes = bq.lanes[:len(bq.lanes)+1]
			} else {
				bq.lanes = append(bq.lanes, batchLane{})
			}
			li = len(bq.lanes) - 1
			bq.lanes[li] = batchLane{Delta: p, Events: bq.lanes[li].Events[:0]}
		}
		l := &bq.lanes[li]
		if l.Events == nil {
			l.Events = make([]event, 0, 64)
		}
		l.Events = append(l.Events, e)
	}
	bq.mixed = bq.mixed[:0]
	bq.mixedHead = 0
	bq.mixedSorted = false
	return true
}
