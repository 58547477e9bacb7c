package sim

import (
	"math"
	"math/bits"

	"vrldram/internal/dram"
)

// Periodic skip. A refresh-only run is periodic by construction: every row
// repeats its refresh interval and its Algorithm 1 counter cycle, so the
// whole schedule repeats every hyperperiod H, the LCM over rows of
// period × (MPRSF+1) ticks (3.072 s on the paper profile). With integer
// time, plain exponential decay and an exact ChargeSum, the simulation
// itself repeats too once the charges reach their fixed point: if the
// state at boundary B is bit-identical to the state at B-H (relative to
// each boundary) and the fast-forward kernel alone carried the run from
// B-H to B, the next k hyperperiods are k more copies of that one. The
// auto backend then adds k × that hyperperiod's Stats delta and jumps k·H
// ahead in one step. The scalar reference never skips, and the backend
// equivalence tests hold the two to the same Stats and checkpoint blobs.
//
// The skip only engages when at least two hyperperiods fit below the
// fast-forward horizon, so trace records, scrub ticks, checkpoints,
// scenario change-points and scheduler instability all stop it; a
// hyperperiod with a violation (whose record carries an absolute time)
// never repeats, and a scenario modulator measures decay in float seconds,
// which do not repeat exactly, so it keeps the skip off.

// skipState is the run's state at one hyperperiod boundary, with every
// time taken relative to that boundary.
type skipState struct {
	charge  []float64
	lastT   []int64
	nextT   []int64 // each row's pending refresh
	rcount  []int
	retired []bool
	busy    int64
	viol    int
	st      Stats // the accumulators the kernel advances
}

// periodicSkip tracks the chain of fast-forward windows that ends at each
// boundary, and the snapshots compared there.
type periodicSkip struct {
	h     int64 // the run's hyperperiod in ticks; 0 = not yet computed, -1 = none
	next  int64 // the boundary the chain's current window ends at
	ext   int64 // the fast-forward horizon when that window was planned
	armed bool  // the kernel alone carried the run up to next
	have  bool  // prev holds the state at the chain's previous boundary

	prev, cur skipState
}

// reset drops any chain.
func (sk *periodicSkip) reset() { sk.armed, sk.have = false, false }

// hyperperiod returns the LCM over rows of period × (MPRSF+1) in ticks, or
// 0 when a period is not positive or the LCM overflows int64.
func hyperperiod(cfg *dram.StreamConfig, rows int) int64 {
	h := int64(1)
	for r := 0; r < rows; r++ {
		p := cfg.Period
		if cfg.Periods != nil {
			p = cfg.Periods[r]
		}
		c := int64(1)
		if cfg.RCount != nil {
			c = int64(cfg.MPRSF[r]) + 1
		}
		hi, v := bits.Mul64(uint64(p), uint64(c))
		if p <= 0 || c <= 0 || hi != 0 || v > math.MaxInt64 {
			return 0
		}
		if h%int64(v) == 0 {
			continue
		}
		a, b := h, int64(v)
		for b != 0 {
			a, b = b, a%b
		}
		hi, l := bits.Mul64(uint64(h/a), v)
		if hi != 0 || l > math.MaxInt64 {
			return 0
		}
		h = int64(l)
	}
	return h
}

// plan is called before every fast-forward window, once hf, the horizon
// below which nothing but refreshes can happen, is known. It returns the
// horizon the kernel window should use: hf itself, or the next hyperperiod
// boundary when the chain is worth running (capped). The hyperperiod is
// computed once per run, from the schedule at its first window; the skip
// is exact for any H, since it only jumps where the state did repeat after
// H, so a schedule a repair changed later merely stops repeating.
func (sk *periodicSkip) plan(tFirst, hf int64, cfg *dram.StreamConfig, rows int) (hw int64, capped bool) {
	if sk.h == 0 {
		if sk.h = hyperperiod(cfg, rows); sk.h == 0 {
			sk.h = -1
		}
	}
	h := sk.h
	if h < 0 || tFirst > math.MaxInt64-h {
		sk.reset()
		return hf, false
	}
	sk.next = (tFirst/h + 1) * h
	// A chain needs its next boundary, one more for the comparison unless
	// prev already holds it, and at least one hyperperiod to skip.
	need := int64(2)
	if sk.have {
		need = 1
	}
	if (hf-sk.next)/h < need {
		sk.reset()
		return hf, false
	}
	sk.ext = hf
	return sk.next, true
}

// capture fills s with the state at boundary b.
func (s *skipState) capture(b int64, bank *dram.Bank, bq *batchQueue, cfg *dram.StreamConfig, st *Stats, busyUntil int64) {
	charge, lastT, retired := bank.Columns()
	n := len(charge)
	s.charge = append(s.charge[:0], charge...)
	s.retired = append(s.retired[:0], retired...)
	s.lastT = append(s.lastT[:0], lastT...)
	for r := range s.lastT {
		s.lastT[r] -= b
	}
	if cap(s.nextT) < n {
		s.nextT = make([]int64, n)
	}
	s.nextT = s.nextT[:n]
	for r := range s.nextT {
		s.nextT[r] = math.MinInt64
	}
	bq.each(func(e *event) { s.nextT[e.Row] = e.T - b })
	s.rcount = append(s.rcount[:0], cfg.RCount...)
	s.busy = busyUntil - b
	s.viol = bank.ViolationCount()
	s.st = accumulators(st)
}

// accumulators copies the Stats fields a refresh-only span advances.
func accumulators(st *Stats) Stats {
	return Stats{FullRefreshes: st.FullRefreshes, PartialRefreshes: st.PartialRefreshes, BusyCycles: st.BusyCycles, ChargeRestored: st.ChargeRestored}
}

// same reports whether two boundary states are bit-identical.
func (a *skipState) same(b *skipState) bool {
	if a.busy != b.busy || a.viol != b.viol || len(a.charge) != len(b.charge) || len(a.rcount) != len(b.rcount) {
		return false
	}
	for r := range a.charge {
		if math.Float64bits(a.charge[r]) != math.Float64bits(b.charge[r]) || a.lastT[r] != b.lastT[r] ||
			a.nextT[r] != b.nextT[r] || a.retired[r] != b.retired[r] {
			return false
		}
	}
	for r := range a.rcount {
		if a.rcount[r] != b.rcount[r] {
			return false
		}
	}
	return true
}

// arrive is called before every fast-forward window. Unless the kernel
// alone has just carried the run to the chain's boundary B = sk.next with
// nothing external due up to tFirst, it drops the chain's snapshot and
// returns 0. Otherwise it captures the state at B and, when it repeats the
// state one hyperperiod earlier, returns how many whole hyperperiods k fit
// below hf so the caller can jump k·H; it then adds k × the last
// hyperperiod's delta to st. It returns 0 when nothing repeats.
func (sk *periodicSkip) arrive(tFirst, hf int64, bank *dram.Bank, bq *batchQueue, cfg *dram.StreamConfig, st *Stats, busyUntil int64) int64 {
	if !sk.armed || tFirst < sk.next || sk.ext <= tFirst {
		sk.reset()
		return 0
	}
	b, h := sk.next, sk.h
	sk.cur.capture(b, bank, bq, cfg, st, busyUntil)
	k := int64(0)
	if sk.have && sk.cur.same(&sk.prev) {
		k = (hf - b) / h
	}
	if k > 0 {
		c, p := &sk.cur.st, &sk.prev.st
		st.FullRefreshes += k * (c.FullRefreshes - p.FullRefreshes)
		st.PartialRefreshes += k * (c.PartialRefreshes - p.PartialRefreshes)
		st.BusyCycles += k * (c.BusyCycles - p.BusyCycles)
		st.ChargeRestored = st.ChargeRestored.Plus(c.ChargeRestored.Minus(p.ChargeRestored).Times(k))
		// The state after the jump is cur shifted by k·H, so cur stays the
		// snapshot for the new boundary once its accumulators follow.
		sk.cur.st = accumulators(st)
	}
	sk.prev, sk.cur = sk.cur, sk.prev
	sk.have = true
	sk.armed = false
	return k
}
