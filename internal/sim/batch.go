package sim

import (
	"math"

	"vrldram/internal/dram"
)

// never is the queue's "no event" time, above every real tick.
const never = int64(math.MaxInt64)

// Lane event queue. Almost every refresh event is a re-push at
// "now + period" for a period drawn from a handful of distinct values (the
// retention bins), and the runner processes events in ascending time order
// - so the re-pushes of one period value arrive already sorted. Keeping one
// FIFO lane per distinct period makes push an append and pop a min over the
// lane heads, with no hashing and no sorting on the hot path, and hands the
// fast-forward kernel its events already grouped by period. Events that do
// not come with a period (initial seeds, resume snapshots) or that would
// break a lane's ordering go to a "mixed" intake lane that is sorted lazily,
// once per disturbance.
//
// Ordering invariant: identical to the reference heap - events leave in
// strictly increasing (time, row) order, so the auto runner observes
// exactly the sequence the scalar runner would.
const (
	// batchWindow bounds one per-event window of the auto runner:
	// [tFirst, tFirst+batchWindow), further cut by checkpoint/scrub/trace
	// boundaries, so a wider window never delays an interleaving
	// interaction. It only sets how often the loop re-tries fast-forward
	// and re-checks the context; eight milliseconds holds on the order of a
	// thousand refresh events of an 8K-row bank. In ticks.
	batchWindow = 8e-3 / dram.Tick
	// batchMaxLanes caps the per-period lanes. Schedulers with more
	// distinct periods than this (none of the shipped ones; the bins are
	// 3-4 values) spill the excess into the mixed lane, which stays
	// correct - just sorted instead of merged.
	batchMaxLanes = 12
	// laneCompactMin bounds how much consumed prefix a lane may carry
	// before its tail is copied down. Amortized O(1) per event.
	laneCompactMin = 4096
)

// eventLess is the queue's total order: (time, row) ascending.
func eventLess(a, b event) bool {
	return a.T < b.T || (a.T == b.T && a.Row < b.Row)
}

// sortEvents orders s by (time, row), reusing the caller's scratch buffers
// across calls. Input that is already sorted - a resume snapshot, which
// checkpoints store in canonical order - costs one pass; anything else (the
// initial seed phase, which arrives in row order with effectively random
// stagger times, or a spilled lane) goes through the byte radix.
func sortEvents(s []event, scratch *[]event, keys *[]uint64) {
	for i := 1; i < len(s); i++ {
		if eventLess(s[i], s[i-1]) {
			radixSortEvents(s, scratch, keys)
			return
		}
	}
}

// radixSortEvents orders s by (time, row) with an LSD byte radix over the
// tick (its sign bit flipped, which makes the unsigned order the signed
// one), then repairs row order inside equal-time runs with a bounded
// insertion pass. Sorting 8K seed events this way is ~4x cheaper than
// quicksort: no comparisons, and passes over bytes the keys all share - the
// high bytes of ticks inside one refresh window - are detected from the
// histogram and skipped.
func radixSortEvents(s []event, scratch *[]event, keyBuf *[]uint64) {
	n := len(s)
	if cap(*scratch) < n {
		*scratch = make([]event, n)
	}
	tmp := (*scratch)[:n]
	if cap(*keyBuf) < 2*n {
		*keyBuf = make([]uint64, 2*n)
	}
	keys := (*keyBuf)[:n]
	keysTmp := (*keyBuf)[n : 2*n]
	var hist [8][256]int
	for i := range s {
		b := uint64(s[i].T) ^ 1<<63
		keys[i] = b
		hist[0][b&0xff]++
		hist[1][b>>8&0xff]++
		hist[2][b>>16&0xff]++
		hist[3][b>>24&0xff]++
		hist[4][b>>32&0xff]++
		hist[5][b>>40&0xff]++
		hist[6][b>>48&0xff]++
		hist[7][b>>56&0xff]++
	}
	src, dst := s, tmp
	ksrc, kdst := keys, keysTmp
	for pass := range hist {
		h := &hist[pass]
		shift := uint(pass * 8)
		if h[ksrc[0]>>shift&0xff] == n {
			continue // every key shares this byte
		}
		sum := 0
		for i := range h {
			c := h[i]
			h[i] = sum
			sum += c
		}
		for i := 0; i < n; i++ {
			k := ksrc[i]
			d := k >> shift & 0xff
			j := h[d]
			h[d] = j + 1
			dst[j] = src[i]
			kdst[j] = k
		}
		src, dst = dst, src
		ksrc, kdst = kdst, ksrc
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
	// The radix ordered by time alone; restore (time, row) order inside any
	// equal-time run (rare: distinct rows almost always have distinct
	// phases, so runs are short when they exist at all).
	for i := 1; i < n; i++ {
		if s[i].T == s[i-1].T && s[i].Row < s[i-1].Row {
			e := s[i]
			j := i
			for j > 0 && s[j-1].T == e.T && s[j-1].Row > e.Row {
				s[j] = s[j-1]
				j--
			}
			s[j] = e
		}
	}
}

// batchLane is one FIFO of events sharing a re-push period. Its unconsumed
// tail Events[Head:] is sorted by (time, row) by construction: the runner
// pushes in ascending event-time order, and adding a shared constant
// preserves that order. It aliases dram.RefreshLane so the lane slice can be
// handed to the fast-forward kernel in place.
type batchLane = dram.RefreshLane

// laneTailT returns the newest queued tick, or MinInt64 when the lane is
// empty.
func laneTailT(l *batchLane) int64 {
	if l.Head == len(l.Events) {
		return math.MinInt64
	}
	return l.Events[len(l.Events)-1].T
}

func laneCompact(l *batchLane) {
	if l.Head == len(l.Events) {
		l.Events = l.Events[:0]
		l.Head = 0
	} else if l.Head >= laneCompactMin && l.Head >= len(l.Events)/2 {
		n := copy(l.Events, l.Events[l.Head:])
		l.Events = l.Events[:n]
		l.Head = 0
	}
}

// batchQueue is the lane set plus the mixed intake.
type batchQueue struct {
	lanes       []batchLane
	mixed       []event // unsorted intake: seeds, resumes, spilled lanes
	mixedHead   int
	mixedSorted bool
	count       int

	sortTmp  []event  // radix staging buffer for the mixed lane
	sortKeys []uint64 // radix key scratch for the mixed lane
}

// reset empties the queue while keeping every allocation for reuse.
func (bq *batchQueue) reset() {
	for i := range bq.lanes {
		bq.lanes[i].Events = bq.lanes[i].Events[:0]
		bq.lanes[i].Head = 0
	}
	bq.lanes = bq.lanes[:0]
	bq.mixed = bq.mixed[:0]
	bq.mixedHead = 0
	bq.mixedSorted = false
	bq.count = 0
}

func (bq *batchQueue) size() int { return bq.count }

// push enqueues an event with no ordering hint: it goes to the mixed lane,
// to be sorted on the next read.
func (bq *batchQueue) push(e event) {
	bq.mixed = append(bq.mixed, e)
	bq.mixedSorted = false
	bq.count++
}

// pushNext enqueues a re-push scheduled delta after the event the runner is
// currently processing. Events sharing a delta arrive in ascending time
// order (the runner's processing order), so each lane stays sorted by
// construction; the guard below routes any violation - and any delta beyond
// the lane cap - through the mixed lane instead.
func (bq *batchQueue) pushNext(e event, delta int64) {
	for i := range bq.lanes {
		l := &bq.lanes[i]
		if l.Delta == delta {
			if t := laneTailT(l); e.T < t || (e.T == t && l.Events[len(l.Events)-1].Row >= e.Row) {
				break // would break FIFO order; spill to mixed
			}
			laneCompact(l)
			l.Events = append(l.Events, e)
			bq.count++
			return
		}
	}
	if len(bq.lanes) < batchMaxLanes {
		if cap(bq.lanes) > len(bq.lanes) {
			// Reuse a recycled lane (and its buffer) from a prior run.
			bq.lanes = bq.lanes[:len(bq.lanes)+1]
			l := &bq.lanes[len(bq.lanes)-1]
			l.Delta = delta
			l.Events = append(l.Events[:0], e)
			l.Head = 0
		} else {
			bq.lanes = append(bq.lanes, batchLane{Delta: delta, Events: append(make([]event, 0, 64), e)})
		}
		bq.count++
		return
	}
	bq.push(e)
}

// ensureMixedSorted sorts the mixed lane's unconsumed tail if dirty.
func (bq *batchQueue) ensureMixedSorted() {
	if !bq.mixedSorted {
		if bq.mixedHead == len(bq.mixed) {
			bq.mixed = bq.mixed[:0]
			bq.mixedHead = 0
		}
		sortEvents(bq.mixed[bq.mixedHead:], &bq.sortTmp, &bq.sortKeys)
		bq.mixedSorted = true
	}
}

// peekTime returns the earliest outstanding event tick, or never when empty.
func (bq *batchQueue) peekTime() int64 {
	if bq.count == 0 {
		return never
	}
	_, e := bq.argmin()
	return e.T
}

// argmin locates the lane holding the earliest event: index into lanes, or
// -1 for the mixed lane. The queue must be non-empty.
func (bq *batchQueue) argmin() (int, event) {
	bq.ensureMixedSorted()
	best := -2
	var bestE event
	if bq.mixedHead < len(bq.mixed) {
		best, bestE = -1, bq.mixed[bq.mixedHead]
	}
	for i := range bq.lanes {
		l := &bq.lanes[i]
		if l.Head < len(l.Events) {
			if e := l.Events[l.Head]; best == -2 || eventLess(e, bestE) {
				best, bestE = i, e
			}
		}
	}
	return best, bestE
}

// pop removes and returns the earliest event. The queue must be non-empty.
func (bq *batchQueue) pop() event {
	li, e := bq.argmin()
	bq.take(li)
	return e
}

// popBefore removes and returns the earliest event when its tick is below
// h; otherwise, an empty queue included, it reports false and leaves the
// queue unchanged. One argmin serves both the test and the removal.
func (bq *batchQueue) popBefore(h int64) (event, bool) {
	if bq.count == 0 {
		return event{}, false
	}
	li, e := bq.argmin()
	if e.T >= h {
		return event{}, false
	}
	bq.take(li)
	return e, true
}

// take consumes the head of lane li (-1: the mixed lane).
func (bq *batchQueue) take(li int) {
	if li == -1 {
		bq.mixedHead++
	} else {
		bq.lanes[li].Head++
	}
	bq.count--
}

// pendingSorted returns the outstanding events in canonical (time, row)
// order - the checkpoint form, identical across queue implementations.
func (bq *batchQueue) pendingSorted() []PendingEvent {
	out := make([]PendingEvent, 0, bq.size())
	bq.each(func(e *event) { out = append(out, PendingEvent{Time: e.T, Row: e.Row}) })
	sortPending(out)
	return out
}

// each calls f on every outstanding event, lanes first, in no particular
// order.
func (bq *batchQueue) each(f func(*event)) {
	for i := range bq.lanes {
		l := &bq.lanes[i]
		for j := range l.Events[l.Head:] {
			f(&l.Events[l.Head+j])
		}
	}
	for j := range bq.mixed[bq.mixedHead:] {
		f(&bq.mixed[bq.mixedHead+j])
	}
}
