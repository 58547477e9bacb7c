// Macro-step fast-forward kernel: whole-window columnar replay.
//
// In a quiescent steady state - no trace records, no scrub ticks, no
// checkpoint boundary, schedule stable - every refresh event is "sense,
// restore, re-arm at t+period", and internal/sim's period lanes already
// hold the events in sorted order. Replaying the lane merge event by event
// would cost one random cache-line access per event; RefreshMacro instead
// restructures the whole window into row-major passes by exploiting what is
// actually order-dependent in the pipeline:
//
//   - A row's refresh times depend only on its first pending event and its
//     period - never on charge - so the whole window's event times can be
//     generated per row (pass A) and the global (time, row) order verified
//     afterwards against the generated columns alone.
//   - Per-row state (charge, lastT, rcount) evolves independently of other
//     rows, so the full charge pipeline can be replayed row-major (pass C),
//     with one random access per row instead of one per event.
//   - The only cross-row order dependencies are the non-associative
//     ChargeRestored sum, the violations append order, and the identity of
//     the globally last event. Pass C buffers each event's restore delta;
//     pass D re-walks the events in global (time, row) order - a cursor
//     merge over the generated lane columns - folding the deltas into the
//     accumulator in exactly the scalar runner's order. Violations are
//     rare: they are collected per row and sorted by (time, row), which
//     equals the global append order because the order is a strict total
//     order.
//
// Pass D verifies while it merges: every consumed event must be strictly
// greater than its predecessor in (time, row). With a strict total order a
// merge whose output is sorted IS the global sort, so the check both
// validates the lap-prefix layout assumptions and certifies bit-identity;
// if it ever fails, the kernel re-sorts the buffered events and replays the
// accumulation from the sorted copy - slower, still exact, no undo needed
// (per-row state committed in pass C is order-independent).
//
// Shapes the kernel cannot take - a row whose period left its lane, counts
// that are not a two-valued non-increasing prefix, duplicate rows in a lane
// - are detected in pass A before any mutation, returning Bailed with bank
// and lanes untouched so the caller can run the window through its
// per-event path instead.
package dram

import (
	"fmt"
	"math"
	"sort"

	"vrldram/internal/retention"
)

// macroMaxLanes bounds the cursor arrays; the queue's lane cap is far below.
const macroMaxLanes = 64

// macroLane is the per-lane plan pass A builds: where the lane's columns
// live in the shared scratch buffers and the lap-prefix shape of its window.
// Rows j < m carry cmax events, rows j >= m carry cmax-1 (or every row
// carries cmax when m == n); lap k therefore covers rows [0, n) for
// k < cmin and [0, m) for k in [cmin, cmax).
type macroLane struct {
	evBase  int // base index of the lane's tiled time/delta/op columns
	rowBase int // base index of the lane's row-order metadata
	n       int // rows in the lane
	stride  int // laps capacity per row
	cmax    int // events for prefix rows
	cmin    int // events for suffix rows (cmax or cmax-1)
	m       int // rows with cmax events (prefix length in lane order)
}

// macroIdx maps (row slot j, lap k) into the lane's tiled column: rows are
// tiled in blocks of 8 so one cache line holds eight neighbouring rows' same
// lap. Pass A/C walk one row's laps inside a block that stays cache-resident
// across the block's eight rows; pass D walks a lap across rows and reads
// eight consecutive values per line. Both directions stream.
func macroIdx(j, k, stride int) int {
	return (j>>3)*(stride<<3) + (k << 3) + (j & 7)
}

// macroCap returns the tiled column capacity for n rows at the given stride.
func macroCap(n, stride int) int {
	return ((n + 7) >> 3) * (stride << 3)
}

// macroCursor walks one lane's events in (time, row) order during pass D.
type macroCursor struct {
	j, k  int
	t     float64
	row   int
	alive bool
}

// RefreshMacro consumes every event with time < horizon from the lanes in
// global (time, row) order via columnar whole-window replay, bit-identical
// to processing the same events one by one through Refresh (same charges,
// violations in the same order, the same ChargeRestored sum order) and
// re-arming each row at t + period in its lane. acc is the caller's
// ChargeRestored accumulator. On Bailed the lanes and bank are untouched;
// the caller should process the window through its per-event path.
func (b *Bank) RefreshMacro(sc *StreamScratch, lanes []RefreshLane, horizon float64, cfg *StreamConfig, acc float64) (StreamResult, error) {
	res := StreamResult{ChargeRestored: acc}
	if !(cfg.AlphaFull >= 0 && cfg.AlphaFull <= 1) {
		return res, fmt.Errorf("dram: restore alpha %g outside [0,1]", cfg.AlphaFull)
	}
	if cfg.RCount != nil && !(cfg.AlphaPartial >= 0 && cfg.AlphaPartial <= 1) {
		return res, fmt.Errorf("dram: restore alpha %g outside [0,1]", cfg.AlphaPartial)
	}
	nRows := b.Geom.Rows
	if cfg.Periods != nil && len(cfg.Periods) != nRows {
		return res, fmt.Errorf("dram: stream periods cover %d rows, bank has %d", len(cfg.Periods), nRows)
	}
	if cfg.RCount != nil && (len(cfg.RCount) != nRows || len(cfg.MPRSF) != nRows) {
		return res, fmt.Errorf("dram: stream counters cover %d/%d rows, bank has %d", len(cfg.RCount), len(cfg.MPRSF), nRows)
	}
	if len(lanes) > macroMaxLanes {
		res.Bailed = true
		return res, nil
	}
	sc.macroEnsure(nRows)

	// Pass A: per lane, generate every row's event times below the horizon
	// and verify the shape. Nothing is mutated until every lane passes.
	var plan [macroMaxLanes]macroLane
	evTotal, rowTotal := 0, 0
	sc.seenEpoch++
	epoch := sc.seenEpoch
	for li := range lanes {
		l := &lanes[li]
		n := len(l.Events) - l.Head
		pl := &plan[li]
		*pl = macroLane{evBase: evTotal, rowBase: rowTotal, n: n}
		if n == 0 {
			continue
		}
		p := l.Delta
		if !(p > 0) {
			res.Bailed = true
			return res, nil
		}
		// Bound the per-row lap count from the lane's earliest event so the
		// columns can be sized before the counting walk.
		stride := LapsBelow(l.Events[l.Head].T, p, horizon) + 1
		pl.stride = stride
		need := evTotal + macroCap(n, stride)
		if cap(sc.times) < need {
			grown := make([]float64, need+need/4)
			copy(grown, sc.times[:evTotal])
			sc.times = grown
		}
		sc.times = sc.times[:cap(sc.times)]
		if cap(sc.mrows) < rowTotal+n {
			grownR := make([]int32, rowTotal+n+nRows)
			copy(grownR, sc.mrows[:rowTotal])
			sc.mrows = grownR
			grownN := make([]float64, cap(grownR))
			copy(grownN, sc.mnext[:rowTotal])
			sc.mnext = grownN
			grownC := make([]int32, cap(grownR))
			copy(grownC, sc.mcnt[:rowTotal])
			sc.mcnt = grownC
		}
		sc.mrows = sc.mrows[:cap(sc.mrows)]
		sc.mnext = sc.mnext[:cap(sc.mnext)]
		sc.mcnt = sc.mcnt[:cap(sc.mcnt)]
		for j := 0; j < n; j++ {
			ev := l.Events[l.Head+j]
			row := ev.Row
			if uint(row) >= uint(nRows) {
				return res, fmt.Errorf("dram: row %d out of range [0,%d)", row, nRows)
			}
			if sc.seen[row] == epoch {
				res.Bailed = true // row queued twice: not a steady shape
				return res, nil
			}
			sc.seen[row] = epoch
			rp := cfg.Period
			if cfg.Periods != nil {
				rp = cfg.Periods[row]
			}
			if rp != p {
				res.Bailed = true // period left the lane: cross-lane re-push
				return res, nil
			}
			// Count this row's events below the horizon by the same repeated
			// addition the replay performs (a multiplied estimate can land on
			// the other side of the horizon); times are not stored here -
			// pass C regenerates them while it replays, so the window's
			// events cross the cache once less.
			t := ev.T
			cnt := 0
			for t < horizon && cnt < stride {
				t += p
				cnt++
			}
			if cnt >= stride && t < horizon {
				res.Bailed = true // capacity estimate violated; stay safe
				return res, nil
			}
			// Counts must be non-increasing along the lane's sorted order
			// and span at most two adjacent values - the lap-prefix shape
			// pass D's cursors rely on.
			switch {
			case j == 0:
				pl.cmax, pl.cmin, pl.m = cnt, cnt, n
			case cnt == pl.cmin:
				// still on the current value
			case cnt == pl.cmin-1 && pl.cmin == pl.cmax:
				pl.cmin = cnt // the single allowed drop
				pl.m = j
			default:
				res.Bailed = true
				return res, nil
			}
			sc.mrows[rowTotal+j] = int32(row)
			sc.mnext[rowTotal+j] = t
			sc.mcnt[rowTotal+j] = int32(cnt)
		}
		evTotal += macroCap(n, stride)
		rowTotal += n
	}

	// Size the delta/op columns to match the time columns.
	if cap(sc.deltas) < evTotal {
		sc.deltas = make([]float64, evTotal+evTotal/4)
	}
	sc.deltas = sc.deltas[:cap(sc.deltas)]
	if cap(sc.ops) < evTotal {
		sc.ops = make([]byte, evTotal+evTotal/4)
	}
	sc.ops = sc.ops[:cap(sc.ops)]

	// Pass C: row-major replay of the charge pipeline, committing per-row
	// state directly to the bank columns and buffering each event's restore
	// delta and op for pass D. From here on state is mutated; errors below
	// mirror the scalar path's (partial progress, same message).
	sc.macroViol = sc.macroViol[:0]
	var fulls int64
	events := 0
	charge, lastT := b.charge, b.lastT
	tretCol := b.retentions()
	retired := b.retired
	rcount, mprsf := cfg.RCount, cfg.MPRSF
	hasCnt := rcount != nil
	alphaF, alphaP := cfg.AlphaFull, cfg.AlphaPartial
	ext := sc.ext
	shadow := sc.tret
	times, deltas, ops := sc.times, sc.deltas, sc.ops
	mrows, mcnt := sc.mrows, sc.mcnt
	for li := range lanes {
		pl := &plan[li]
		if pl.n == 0 || pl.cmax == 0 {
			continue
		}
		l := &lanes[li]
		p := l.Delta
		for j := 0; j < pl.n; j++ {
			row := int(mrows[pl.rowBase+j])
			cnt := int(mcnt[pl.rowBase+j])
			if cnt == 0 {
				continue
			}
			tret := tretCol[row]
			if shadow[row] != tret {
				shadow[row] = tret
				nan := math.NaN()
				for i := range ext[row].p {
					ext[row].p[i].dt = nan
				}
			}
			x := &ext[row]
			v0 := charge[row]
			lt := lastT[row]
			rr := retired[row]
			rc, mp := int32(0), int32(0)
			if hasCnt {
				rcv, mpv := rcount[row], mprsf[row]
				if int64(int32(rcv)) != int64(rcv) || int64(int32(mpv)) != int64(mpv) {
					b.macroFlushViol(sc)
					return res, fmt.Errorf("dram: stream counter for row %d overflows the packed column (%d/%d)", row, rcv, mpv)
				}
				rc, mp = int32(rcv), int32(mpv)
			}
			base := pl.evBase + macroIdx(j, 0, pl.stride)
			// Two-entry MRU register memo: a row's dt ALTERNATES between two
			// rounding values near binade crossings of t, so one register
			// thrashes where a pair captures the cycle; the pinned per-row
			// overflow memo backs both across windows.
			dtA, fA := math.NaN(), 0.0
			dtB, fB := math.NaN(), 0.0
			t := l.Events[l.Head+j].T
			for k := 0; k < cnt; k++ {
				times[base+(k<<3)] = t
				dt := t - lt
				if dt < 0 {
					b.macroFlushViol(sc)
					return res, fmt.Errorf("dram: time went backwards for row %d: %.6g < %.6g", row, t, lt)
				}
				var f float64
				if dt == dtA {
					f = fA
				} else if dt == dtB {
					f = fB
					dtA, dtB = dtB, dtA
					fA, fB = fB, fA
				} else {
					// Overflow memo: direct probe at a mantissa-hashed home
					// slot, then a pinned scan. Values are inserted at a free
					// slot when the home is taken (a row's working set is
					// small but collides in any fixed hash, and evicting a
					// pinned value would ping-pong), so a scan hit never
					// recomputes; the home probe just short-circuits it.
					hb := math.Float64bits(dt)
					h := int((hb ^ hb>>3 ^ hb>>6) & 7)
					if x.p[h].dt == dt {
						f = x.p[h].f
					} else {
						hit := false
						for i := range x.p {
							if x.p[i].dt == dt {
								f = x.p[i].f
								hit = true
								break
							}
						}
						if !hit {
							if dt == 0 {
								f = 1
							} else if tret <= 0 {
								f = 0
							} else {
								f = math.Exp2(-dt / tret)
							}
							if x.p[h].dt != x.p[h].dt { // home free: take it
								x.p[h] = streamPair{dt: dt, f: f}
							} else {
								ins := h
								for i := range x.p {
									if x.p[i].dt != x.p[i].dt {
										ins = i
										break
									}
								}
								x.p[ins] = streamPair{dt: dt, f: f}
							}
						}
					}
					dtB, fB = dtA, fA
					dtA, fA = dt, f
				}
				v := v0 * f
				if v < retention.SenseLimit && !rr {
					sc.macroViol = append(sc.macroViol, Violation{Row: row, Time: t, Charge: v})
				}
				full := !hasCnt || rc == mp
				alpha := alphaP
				op := byte(0)
				nrc := rc + 1
				if full {
					alpha, op, nrc = alphaF, 1, 0
					fulls++
				}
				rc = nrc
				after := v + (1-v)*alpha
				deltas[base+(k<<3)] = after - v
				ops[base+(k<<3)] = op
				v0 = after
				lt = t
				t += p
				events++
			}
			charge[row] = v0
			lastT[row] = lt
			if hasCnt {
				rcount[row] = int(rc)
			}
		}
	}

	// Pass D: fold the buffered deltas into the accumulator in global
	// (time, row) order via a cursor merge over the lanes' lap-prefix
	// columns, verifying strict (time, row) increase as it goes.
	var curs [macroMaxLanes]macroCursor
	for li := range lanes {
		pl := &plan[li]
		c := &curs[li]
		*c = macroCursor{}
		if pl.n == 0 || pl.cmax == 0 {
			continue
		}
		c.alive = true
		c.t = times[pl.evBase] // j = 0, k = 0 maps to the base slot
		c.row = int(mrows[pl.rowBase])
	}
	prevT := math.Inf(-1)
	lastOp := byte(1)
	lastLane, lastJ, lastIdx := -1, 0, 0
	ordered := true
	consumed := 0
	// Run-batched merge: pick the minimum cursor AND the runner-up bound,
	// then drain a run from the winning lane while it stays strictly below
	// the bound. The dominant lane yields runs of a dozen or more events, so
	// the lane scan amortizes across the run. Inside a run the fast path per
	// event is load time / compare / accumulate: row identities only matter
	// on time ties (the (time, row) order is only consulted when times are
	// equal) and the last event's op only matters once, so both are deferred
	// - rows to a careful path taken on any time tie or order violation, the
	// op to one lookup after the merge.
outer:
	for consumed < events {
		best := -1
		for li := range lanes {
			c := &curs[li]
			if !c.alive {
				continue
			}
			if best < 0 || c.t < curs[best].t || (c.t == curs[best].t && c.row < curs[best].row) {
				best = li
			}
		}
		if best < 0 {
			ordered = false
			break
		}
		tBound := math.Inf(1)
		rowBound := -1
		for li := range lanes {
			c := &curs[li]
			if li == best || !c.alive {
				continue
			}
			if c.t < tBound || (c.t == tBound && c.row < rowBound) {
				tBound, rowBound = c.t, c.row
			}
		}
		c := &curs[best]
		pl := &plan[best]
		evb, rb, st8 := pl.evBase, pl.rowBase, pl.stride<<3
		for {
			lim := pl.n
			if c.k >= pl.cmin {
				lim = pl.m
			}
			k8 := c.k << 3
			for j := c.j; j < lim; j++ {
				idx := evb + (j>>3)*st8 + k8 + (j & 7)
				t := times[idx]
				if t > prevT && t < tBound {
					prevT = t
					acc += deltas[idx]
					lastLane, lastJ, lastIdx = best, j, idx
					consumed++
					continue
				}
				// Careful path: a time tie or an order break. Row identities
				// decide; the previous event's row is recovered from its lane
				// slot (rows do not vary across laps).
				row := int(mrows[rb+j])
				if t > tBound || (t == tBound && row > rowBound) {
					// Run over: the bound lane is now the merge minimum.
					c.j, c.t, c.row = j, t, row
					continue outer
				}
				pr := -1
				if lastLane >= 0 {
					pr = int(mrows[plan[lastLane].rowBase+lastJ])
				}
				if !(t > prevT || (t == prevT && row > pr)) {
					ordered = false
					break outer
				}
				prevT = t
				acc += deltas[idx]
				lastLane, lastJ, lastIdx = best, j, idx
				consumed++
			}
			// Lap exhausted: next lap restarts at the first row.
			c.k++
			c.j = 0
			if c.k >= pl.cmax {
				c.alive = false
				continue outer
			}
		}
	}
	if events > 0 && ordered && consumed == events {
		lastOp = ops[lastIdx]
	}
	if !ordered || consumed != events {
		// The generated columns are not globally sorted through the cursor
		// walk (or the walk lost events): re-sort every buffered event and
		// replay the accumulation from the sorted copy. Exact, just slower;
		// per-row state from pass C is order-independent and stands.
		acc, lastOp, prevT = macroSortedReplay(sc, plan[:len(lanes)], res.ChargeRestored)
	}

	// Violations were collected row-major; (time, row) is a strict total
	// order, so sorting them reproduces the global append order.
	b.macroFlushViol(sc)

	// Write back each lane's next pending events: the cmax prefix rows and
	// the cmin suffix rows are each sorted by (time, row) already, so the
	// new lane content is their two-way merge.
	for li := range lanes {
		pl := &plan[li]
		if pl.n == 0 || pl.cmax == 0 {
			continue
		}
		l := &lanes[li]
		if cap(l.Events) < pl.n {
			l.Events = make([]StreamEvent, pl.n)
		}
		l.Events = l.Events[:pl.n]
		l.Head = 0
		out := l.Events
		a, bd := 0, pl.m // prefix cursor, suffix cursor
		for o := 0; o < pl.n; o++ {
			takeA := a < pl.m
			if takeA && bd < pl.n {
				ta, ra := sc.mnext[pl.rowBase+a], int(mrows[pl.rowBase+a])
				tb, rb := sc.mnext[pl.rowBase+bd], int(mrows[pl.rowBase+bd])
				takeA = ta < tb || (ta == tb && ra < rb)
			}
			if takeA {
				out[o] = StreamEvent{T: sc.mnext[pl.rowBase+a], Row: int(mrows[pl.rowBase+a])}
				a++
			} else {
				out[o] = StreamEvent{T: sc.mnext[pl.rowBase+bd], Row: int(mrows[pl.rowBase+bd])}
				bd++
			}
		}
	}

	res.Events = events
	res.Fulls = fulls
	res.Partials = int64(events) - fulls
	if events > 0 {
		res.LastTime = prevT
		if lastOp == 1 {
			res.LastCycles = cfg.CyclesFull
		} else {
			res.LastCycles = cfg.CyclesPartial
		}
	}
	res.ChargeRestored = acc
	return res, nil
}

// macroFlushViol appends the violations collected so far in global (time,
// row) order; also used when a mid-pass error aborts the window, mirroring
// the scalar path's partial-progress semantics.
func (b *Bank) macroFlushViol(sc *StreamScratch) {
	if len(sc.macroViol) == 0 {
		return
	}
	sort.Slice(sc.macroViol, func(i, j int) bool {
		a, v := sc.macroViol[i], sc.macroViol[j]
		return a.Time < v.Time || (a.Time == v.Time && a.Row < v.Row)
	})
	b.violations = append(b.violations, sc.macroViol...)
	sc.macroViol = sc.macroViol[:0]
}

// macroSortedReplay is the order-verification fallback: gather every
// buffered event, sort by (time, row), and replay the delta accumulation
// from the sorted copy. Returns the accumulator, the last event's op, and
// the last event's time.
func macroSortedReplay(sc *StreamScratch, plan []macroLane, acc float64) (float64, byte, float64) {
	type evd struct {
		t     float64
		row   int
		delta float64
		op    byte
	}
	var all []evd
	for li := range plan {
		pl := &plan[li]
		for j := 0; j < pl.n; j++ {
			cnt := int(sc.mcnt[pl.rowBase+j])
			row := int(sc.mrows[pl.rowBase+j])
			base := pl.evBase + macroIdx(j, 0, pl.stride)
			for k := 0; k < cnt; k++ {
				all = append(all, evd{t: sc.times[base+(k<<3)], row: row, delta: sc.deltas[base+(k<<3)], op: sc.ops[base+(k<<3)]})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		return all[i].t < all[j].t || (all[i].t == all[j].t && all[i].row < all[j].row)
	})
	lastOp := byte(1)
	lastT := math.Inf(-1)
	for i := range all {
		acc += all[i].delta
		lastOp = all[i].op
		lastT = all[i].t
	}
	return acc, lastOp, lastT
}

// MaxLaps saturates LapsBelow. A window holds at most a few hundred
// thousand events, so no real lane comes near it; the bound exists so the
// float -> int conversion never meets values outside int range, which Go
// leaves implementation-defined.
const MaxLaps = 1 << 30

// LapsBelow returns the largest k >= 0 with t + k*period < horizon,
// computed against the same float expression the caller evaluates (t +
// float64(k)*period), so the count never promises a lap that lands on or
// past the horizon, saturating at MaxLaps. Degenerate inputs (non-positive
// or NaN period, t already at or past the horizon) give zero. RefreshMacro
// uses it as a capacity bound, with the exact count settled by the
// generation walk itself.
func LapsBelow(t, period, horizon float64) int {
	if !(period > 0) || !(t < horizon) {
		return 0
	}
	r := (horizon - t) / period
	k := MaxLaps
	if r < MaxLaps {
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
	for k < MaxLaps && t+float64(k+1)*period < horizon {
		k++
	}
	return k
}

// macroEnsure sizes the row-indexed scratch (duplicate detection epochs and
// the shared memo columns) for the bank geometry.
func (sc *StreamScratch) macroEnsure(nRows int) {
	if len(sc.seen) != nRows {
		sc.seen = make([]int32, nRows)
		sc.seenEpoch = 0
	}
	sc.ensureMemo(nRows)
}

// EventCap reports how many events the macro kernel's per-window columns
// (time, delta, op) can hold - their footprint, 17 bytes per slot. The
// columns grow to the largest window handed to RefreshMacro, so a caller
// that bounds its windows bounds this.
func (sc *StreamScratch) EventCap() int { return cap(sc.times) }
