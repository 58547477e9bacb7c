package sim

// Fast-forward planning: the pure arithmetic the auto backend's fast-forward
// uses to decide how far a quiescent window may extend. Kept free of
// simulator state so the fuzz target (FuzzFastForwardPlan) can hammer it -
// together with the kernel's event count, dram.EventsBelow - with arbitrary
// inputs.

// ffHorizon returns the earliest of the candidate fast-forward caps: the run
// duration, the next checkpoint boundary, the next scrub sweep, the next
// trace record, and the scheduler/scenario stability horizon, all in
// ticks. Callers pass never for sources that do not apply; the result is
// the largest tick the kernel may process events strictly below without any
// non-refresh machinery being able to intervene.
func ffHorizon(duration, nextCP, scrubDue, traceNext, stableUntil int64) int64 {
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

// ffMinLap returns the smallest refresh period among lanes holding
// unconsumed events - the shortest window span in which a fast-forward
// kernel can replay at least one full lap of some lane. Windows narrower
// than this cannot amortize the kernel's per-window full-lane scans, so the
// runner skips the attempt (never when no lane holds events, or a lane's
// period is degenerate, which sends the window to the per-event path).
func ffMinLap(lanes []batchLane) int64 {
	min := never
	for i := range lanes {
		l := &lanes[i]
		if l.Head >= len(l.Events) {
			continue
		}
		if l.Delta <= 0 {
			return never
		}
		if l.Delta < min {
			min = l.Delta
		}
	}
	return min
}

// mixedQuietBelow reports whether the mixed intake holds no event strictly
// below h - the precondition for handing the period lanes alone to the
// fast-forward kernel, which cannot merge the mixed lane.
func (bq *batchQueue) mixedQuietBelow(h int64) bool {
	if bq.mixedHead >= len(bq.mixed) {
		return true
	}
	bq.ensureMixedSorted()
	return !(bq.mixed[bq.mixedHead].T < h)
}

// adoptMixed moves every unconsumed mixed-intake event into the period lane
// its row's current refresh period keys, so a run whose queue was seeded
// through the mixed intake (initial stagger, resume) can fast-forward from
// its very first window instead of waiting for the per-event path to drain the
// seeds. It does nothing while any lane holds events, or when the move
// does not fit the lanes.
//
// Safe only when every lane is empty: the mixed intake is globally sorted,
// so each period's subsequence is itself sorted and every lane it builds is
// ordered by construction; with a non-empty lane an early mixed event could
// land behind the lane's tail. The move preserves the queue's event
// multiset and count, so pendingSorted (and with it every checkpoint) is
// unchanged.
func (bq *batchQueue) adoptMixed(period int64, periods []int64) {
	if bq.mixedHead >= len(bq.mixed) {
		return
	}
	for i := range bq.lanes {
		if bq.lanes[i].Head < len(bq.lanes[i].Events) {
			return
		}
	}
	bq.ensureMixedSorted()
	// Precheck the whole move before mutating anything: every event's period
	// must be a usable lane key, and the distinct periods (plus recyclable
	// empty lanes) must fit the lane cap.
	var deltas [batchMaxLanes]int64
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
				return
			}
			p = periods[e.Row]
		}
		if p <= 0 {
			return
		}
		for i := 0; i < nd; i++ {
			if deltas[i] == p {
				continue precheck
			}
		}
		if nd == batchMaxLanes {
			return
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
}

// advance moves every outstanding event d ticks later: the periodic skip's
// jump. Lane and intake order are unchanged.
func (bq *batchQueue) advance(d int64) { bq.each(func(e *event) { e.T += d }) }
