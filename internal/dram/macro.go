// Macro-step fast-forward kernel: whole-window row-major replay.
//
// In a quiescent steady state - no trace records, no scrub ticks, no
// checkpoint boundary, schedule stable - every refresh event is "sense,
// restore, re-arm at t+period", and internal/sim's period lanes already
// hold the events in sorted order. Replaying the lane merge event by event
// would cost one random cache-line access per event; RefreshMacro instead
// replays the whole window row by row, which is exact because nothing in
// the pipeline depends on the global event order any more:
//
//   - A row's refresh times depend only on its first pending event and its
//     integer period, so its event count below the horizon is one division.
//   - Per-row state (charge, lastT, rcount) evolves independently of other
//     rows, and a steady row's decay interval is the same number of ticks
//     every lap, so each row costs at most two Exp2 calls per window.
//   - ChargeRestored is an exact fixed-point ChargeSum, so its terms may be
//     added in any order. Violations are rare: they are collected per row
//     and sorted by (time, row), which is the global append order.
//
// Shapes the kernel cannot take - a row whose period left its lane, counts
// that are not a two-valued non-increasing prefix, duplicate rows in a lane
// - are detected before any mutation, returning Bailed with bank and lanes
// untouched so the caller can run the window through its per-event path
// instead.
package dram

import (
	"fmt"
	"sort"

	"vrldram/internal/retention"
)

// macroLane is the per-lane plan the first pass builds: where the lane's
// rows live in the shared scratch columns and the prefix shape of its
// window. Rows j < m carry cmax events, rows j >= m carry cmax-1 (or every
// row carries cmax when m == n).
type macroLane struct {
	rowBase int   // base index of the lane's row columns
	n       int   // rows in the lane
	cmax    int64 // events for prefix rows
	m       int   // rows with cmax events (prefix length in lane order)
}

// EventsBelow returns how many of the events t, t+p, t+2p, ... lie strictly
// below horizon: zero when t is already at or past it or p is not positive.
// The count saturates at 2^62, far beyond any run's event count.
func EventsBelow(t, p, horizon int64) int64 {
	if p <= 0 || t >= horizon {
		return 0
	}
	// horizon-t wraps for spans past MaxInt64, but as uint64 it is exact.
	c := (uint64(horizon-t)-1)/uint64(p) + 1
	if c > 1<<62 {
		return 1 << 62
	}
	return int64(c)
}

// RefreshMacro consumes every event with tick < horizon from the lanes,
// bit-identical to processing the same events one by one through Refresh in
// (time, row) order (same charges, violations in the same order, the same
// ChargeRestored sum) and re-arming each row at t + period in its lane. On
// Bailed the lanes and bank are untouched; the caller should process the
// window through its per-event path.
func (b *Bank) RefreshMacro(sc *StreamScratch, lanes []RefreshLane, horizon int64, cfg *StreamConfig) (StreamResult, error) {
	var res StreamResult
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
	if len(sc.seen) != nRows {
		sc.seen = make([]int32, nRows)
		sc.seenEpoch = 0
	}
	if cap(sc.plan) < len(lanes) {
		sc.plan = make([]macroLane, len(lanes))
	}
	plan := sc.plan[:len(lanes)]

	// Pass A: per lane, count every row's events below the horizon and
	// verify the shape. Nothing is mutated until every lane passes.
	rowTotal := 0
	sc.seenEpoch++
	epoch := sc.seenEpoch
	for li := range lanes {
		l := &lanes[li]
		n := len(l.Events) - l.Head
		pl := &plan[li]
		*pl = macroLane{rowBase: rowTotal, n: n}
		if n == 0 {
			continue
		}
		p := l.Delta
		if p <= 0 {
			res.Bailed = true
			return res, nil
		}
		// append rounds each column's capacity up by its own element
		// size, so the two columns are grown independently.
		if cap(sc.mrows) < rowTotal+n {
			sc.mrows = append(sc.mrows[:rowTotal], make([]int32, n)...)
		}
		if cap(sc.mcnt) < rowTotal+n {
			sc.mcnt = append(sc.mcnt[:rowTotal], make([]int64, n)...)
		}
		sc.mrows, sc.mcnt = sc.mrows[:rowTotal+n], sc.mcnt[:rowTotal+n]
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
			// Counts must be non-increasing along the lane's sorted order
			// and span at most two adjacent values, so the write-back below
			// is a two-way merge.
			cnt := EventsBelow(ev.T, p, horizon)
			switch {
			case j == 0:
				pl.cmax, pl.m = cnt, n
			case cnt == pl.cmax && pl.m == n, cnt == pl.cmax-1 && pl.m < n:
				// still on the current value
			case cnt == pl.cmax-1:
				pl.m = j // the single allowed drop
			default:
				res.Bailed = true
				return res, nil
			}
			sc.mrows[rowTotal+j] = int32(row)
			sc.mcnt[rowTotal+j] = cnt
		}
		rowTotal += n
	}

	// Pass C: row-major replay of the charge pipeline, committing per-row
	// state directly to the bank columns. From here on state is mutated;
	// errors below mirror the scalar path's (partial progress, same message).
	sc.macroViol = sc.macroViol[:0]
	var fulls, events int64
	var acc ChargeSum
	lastRow, lastT, lastFull := -1, int64(0), true
	charge, lastRestore := b.charge, b.lastT
	tretCol := b.retentions()
	retired := b.retired
	rcount, mprsf := cfg.RCount, cfg.MPRSF
	hasCnt := rcount != nil
	alphaF, alphaP := cfg.AlphaFull, cfg.AlphaPartial
	modulated := b.mod != nil
	for li := range lanes {
		pl := &plan[li]
		if pl.n == 0 || pl.cmax == 0 {
			continue
		}
		l := &lanes[li]
		p := l.Delta
		for j := 0; j < pl.n; j++ {
			row := int(sc.mrows[pl.rowBase+j])
			cnt := sc.mcnt[pl.rowBase+j]
			if cnt == 0 {
				continue
			}
			t := l.Events[l.Head+j].T
			lt := lastRestore[row]
			if t < lt {
				b.macroFlushViol(sc)
				return res, errBackwards(row, t, lt)
			}
			tret := tretCol[row]
			// The first interval reaches back to the row's last restore; every
			// later one is exactly one period. A nominal scenario modulator
			// measures its intervals in float seconds instead, which drift
			// with t, so under one every event takes its own factor.
			fp := decayPlain(true, Seconds(p), tret)
			f := fp
			if t-lt != p {
				f = decayPlain(true, Seconds(t-lt), tret)
			}
			v0 := charge[row]
			rr := retired[row]
			rc, mp := 0, 0
			if hasCnt {
				rc, mp = rcount[row], mprsf[row]
			}
			full := true
			for k := int64(0); k < cnt; k++ {
				if modulated {
					f = decayPlain(true, Seconds(t)-Seconds(lt), tret)
				}
				v := v0 * f
				if v < retention.SenseLimit && !rr {
					sc.macroViol = append(sc.macroViol, Violation{Row: row, Time: Seconds(t), Charge: v})
				}
				alpha := alphaF
				full = !hasCnt || rc == mp
				if full {
					rc = 0
					fulls++
				} else {
					alpha = alphaP
					rc++
				}
				after := v + (1-v)*alpha
				acc.Add(after - v)
				v0 = after
				f = fp
				lt = t
				t += p
			}
			tl := lt
			charge[row] = v0
			lastRestore[row] = tl
			if hasCnt {
				rcount[row] = rc
			}
			events += cnt
			if tl > lastT || (tl == lastT && row > lastRow) || lastRow < 0 {
				lastRow, lastT, lastFull = row, tl, full
			}
		}
	}

	// Violations were collected row-major; (time, row) is a strict total
	// order, so sorting them reproduces the global append order.
	b.macroFlushViol(sc)

	// Write back each lane's next pending events: the cmax prefix rows and
	// the cmax-1 suffix rows are each sorted by (time, row) already, so the
	// new lane content is their two-way merge.
	for li := range lanes {
		pl := &plan[li]
		if pl.n == 0 || pl.cmax == 0 {
			continue
		}
		l := &lanes[li]
		p := l.Delta
		next := sc.next[:0]
		for j := 0; j < pl.n; j++ {
			next = append(next, StreamEvent{T: l.Events[l.Head+j].T + sc.mcnt[pl.rowBase+j]*p, Row: int(sc.mrows[pl.rowBase+j])})
		}
		sc.next = next
		l.Events = l.Events[:pl.n]
		l.Head = 0
		a, bd := 0, pl.m // prefix cursor, suffix cursor
		for o := range l.Events {
			takeA := a < pl.m
			if takeA && bd < pl.n {
				takeA = next[a].T < next[bd].T || (next[a].T == next[bd].T && next[a].Row < next[bd].Row)
			}
			if takeA {
				l.Events[o] = next[a]
				a++
			} else {
				l.Events[o] = next[bd]
				bd++
			}
		}
	}

	res.Events = events
	res.Fulls = fulls
	res.Partials = events - fulls
	if events > 0 {
		res.LastTime = lastT
		if lastFull {
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
