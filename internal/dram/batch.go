// Columnar batch kernels over the bank's structure-of-arrays row state.
//
// The simulator's hot path senses and restores one row per refresh event;
// these kernels amortize that work across a whole batch window: the
// per-op error checks are hoisted into one validation pass, and decay,
// sensing, and restore then run as tight loops over the charge/lastT/tret
// columns. The batched arithmetic is expression-for-expression identical to
// the scalar ChargeAt/Refresh path, so a batched run is bit-identical to a
// scalar one - the property the internal/sim backend equivalence tests pin
// down. The only sanctioned divergence is on *error* paths: a batch
// validates every op before mutating anything, where the sequential loop
// would have applied the ops preceding the bad one.
package dram

import (
	"fmt"
	"math"

	"vrldram/internal/retention"
)

// BatchOp is one refresh operation in a batch: sense row at Time, then
// restore its charge by Alpha (v' = v + (1-v)*Alpha, as in Refresh).
type BatchOp struct {
	Row   int
	Time  int64   // ticks
	Alpha float64 // restore coefficient in [0,1]
}

// BatchModulator is a Modulator that can integrate decay for many rows in
// one call, amortizing change-point partitioning across rows that share a
// segment schedule (internal/scenario's Env implements it). All slices are
// batch-aligned: out[i] must equal DecayFactor(rows[i], tret[i], t0[i],
// t1[i], base) bit for bit.
type BatchModulator interface {
	Modulator
	DecayFactors(rows []int, tret, t0, t1 []float64, base retention.DecayModel, out []float64)
}

// decayPlain evaluates the unmodulated decay laws with exactly the guards
// and expression shapes of retention.ExpDecay.Factor / LinearDecay.Factor.
func decayPlain(exp bool, dt, tret float64) float64 {
	if dt <= 0 {
		return 1
	}
	if tret <= 0 {
		return 0
	}
	if exp {
		return math.Exp2(-dt / tret)
	}
	f := 1 - (1-retention.SenseLimit)*dt/tret
	if f < 0 {
		return 0
	}
	return f
}

// growF resizes a scratch float column to n, reusing its backing array.
func growF(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growI resizes a scratch int column to n, reusing its backing array.
func growI(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// ChargeAtBatch computes the normalized weakest-cell charge of rows[i] at
// tick times[i] into out[i], without mutating any state - the batched analogue of
// ChargeAt. Inputs are validated up front (row range, times not preceding
// the rows' last restores) in batch order, so the first invalid entry
// surfaces the same error the scalar path would. If a row appears more than
// once, every occurrence is evaluated against the row's current state.
func (b *Bank) ChargeAtBatch(rows []int, times []int64, out []float64) error {
	n := len(rows)
	if len(times) != n || len(out) != n {
		return fmt.Errorf("dram: batch size mismatch: %d rows, %d times, %d out", n, len(times), len(out))
	}
	nRows := b.Geom.Rows
	for i, r := range rows {
		if r < 0 || r >= nRows {
			return fmt.Errorf("dram: row %d out of range [0,%d)", r, nRows)
		}
		if times[i] < b.lastT[r] {
			return errBackwards(r, times[i], b.lastT[r])
		}
	}
	tret := b.retentions()
	switch {
	case b.mod != nil:
		if bm, ok := b.mod.(BatchModulator); ok {
			t0 := growF(&b.batchT0, n)
			tr := growF(&b.batchTret, n)
			f := growF(&b.batchF, n)
			// out holds the sensing times in seconds until the factors are in.
			for i, r := range rows {
				t0[i] = Seconds(b.lastT[r])
				out[i] = Seconds(times[i])
				tr[i] = tret[r]
			}
			bm.DecayFactors(rows, tr, t0, out, b.Decay, f)
			for i, r := range rows {
				out[i] = b.charge[r] * f[i]
			}
			return nil
		}
		for i, r := range rows {
			out[i] = b.charge[r] * b.mod.DecayFactor(r, tret[r], Seconds(b.lastT[r]), Seconds(times[i]), b.Decay)
		}
	case b.VRT != nil:
		for i, r := range rows {
			out[i] = b.charge[r] * b.VRT.DecayFactor(r, tret[r], Seconds(b.lastT[r]), Seconds(times[i]), b.Decay)
		}
	default:
		switch b.Decay.(type) {
		case retention.ExpDecay:
			if b.expMemoArg == nil {
				backing := make([]float64, 2*nRows)
				b.expMemoArg = backing[:nRows:nRows]
				b.expMemoVal = backing[nRows:]
			}
			ma, mv := b.expMemoArg, b.expMemoVal
			for i, r := range rows {
				dt := Seconds(times[i] - b.lastT[r])
				var f float64
				switch {
				case dt <= 0:
					f = 1
				case tret[r] <= 0:
					f = 0
				default:
					if x := -dt / tret[r]; x == ma[r] {
						f = mv[r]
					} else {
						f = math.Exp2(x)
						ma[r], mv[r] = x, f
					}
				}
				out[i] = b.charge[r] * f
			}
		case retention.LinearDecay:
			for i, r := range rows {
				out[i] = b.charge[r] * decayPlain(false, Seconds(times[i]-b.lastT[r]), tret[r])
			}
		default:
			for i, r := range rows {
				out[i] = b.charge[r] * b.Decay.Factor(Seconds(times[i]-b.lastT[r]), tret[r])
			}
		}
	}
	return nil
}

// RestoreSensed applies one refresh restore to a row whose pre-restore
// charge v was already computed (by ChargeAtBatch): it records the
// violation if v is below the sensing limit, then restores by alpha -
// exactly the mutation half of Refresh. The caller owns the contract that v
// is the row's charge at t with no intervening mutation of the row.
func (b *Bank) RestoreSensed(row int, t int64, alpha, v float64) (RefreshResult, error) {
	if row < 0 || row >= b.Geom.Rows {
		return RefreshResult{}, fmt.Errorf("dram: row %d out of range [0,%d)", row, b.Geom.Rows)
	}
	if !(alpha >= 0 && alpha <= 1) { // rejects NaN too
		return RefreshResult{}, fmt.Errorf("dram: restore alpha %g outside [0,1]", alpha)
	}
	if v < retention.SenseLimit && !b.retired[row] {
		b.violations = append(b.violations, Violation{Row: row, Time: Seconds(t), Charge: v})
	}
	after := v + (1-v)*alpha
	b.charge[row] = after
	b.lastT[row] = t
	return RefreshResult{ChargeBefore: v, ChargeAfter: after, ChargeRestored: after - v}, nil
}

// stampEpoch returns the epoch-stamped duplicate-detection column, advancing
// the epoch so a fresh batch needs no O(rows) clear.
func (b *Bank) stampEpoch() []int32 {
	if len(b.batchSeen) != b.Geom.Rows {
		b.batchSeen = make([]int32, b.Geom.Rows)
		b.batchEpoch = 0
	}
	if b.batchEpoch == math.MaxInt32 {
		for i := range b.batchSeen {
			b.batchSeen[i] = 0
		}
		b.batchEpoch = 0
	}
	b.batchEpoch++
	return b.batchSeen
}

// RefreshBatch senses and restores a batch of refresh ops, equivalent to
// calling Refresh(op.Row, op.Time, op.Alpha) for each op in order - bit for
// bit: the same violations in the same order, the same charge and lastT
// columns afterwards. results, when non-nil, receives the per-op
// RefreshResult and must match ops in length.
//
// All validation is hoisted ahead of any mutation: rows in range, alphas in
// [0,1], no duplicate rows, ops in strictly increasing (Time, Row) order,
// and no op preceding its row's last restore. An invalid batch mutates
// nothing (the sequential loop would have applied the prefix before the bad
// op - that error-path difference is the sanctioned divergence).
func (b *Bank) RefreshBatch(ops []BatchOp, results []RefreshResult) error {
	n := len(ops)
	if results != nil && len(results) != n {
		return fmt.Errorf("dram: batch size mismatch: %d ops, %d results", n, len(results))
	}
	nRows := b.Geom.Rows
	seen := b.stampEpoch()
	epoch := b.batchEpoch
	prevT := int64(math.MinInt64)
	prevRow := -1
	for i := range ops {
		op := &ops[i]
		if op.Row < 0 || op.Row >= nRows {
			return fmt.Errorf("dram: batch op %d: row %d out of range [0,%d)", i, op.Row, nRows)
		}
		if !(op.Alpha >= 0 && op.Alpha <= 1) { // rejects NaN too
			return fmt.Errorf("dram: batch op %d: restore alpha %g outside [0,1]", i, op.Alpha)
		}
		if seen[op.Row] == epoch {
			return fmt.Errorf("dram: batch op %d: duplicate row %d", i, op.Row)
		}
		seen[op.Row] = epoch
		if op.Time < prevT || (op.Time == prevT && op.Row <= prevRow) {
			return fmt.Errorf("dram: batch op %d: out of (time, row) order: (%d, %d) after (%d, %d)", i, op.Time, op.Row, prevT, prevRow)
		}
		prevT, prevRow = op.Time, op.Row
		if op.Time < b.lastT[op.Row] {
			return errBackwards(op.Row, op.Time, b.lastT[op.Row])
		}
	}

	rows := growI(&b.batchRows, n)
	times := b.batchTimes[:0]
	for i := range ops {
		rows[i] = ops[i].Row
		times = append(times, ops[i].Time)
	}
	b.batchTimes = times
	charges := growF(&b.batchCharge, n)
	if err := b.ChargeAtBatch(rows, times, charges); err != nil {
		return err
	}

	for i := range ops {
		op := &ops[i]
		v := charges[i]
		if v < retention.SenseLimit && !b.retired[op.Row] {
			b.violations = append(b.violations, Violation{Row: op.Row, Time: Seconds(op.Time), Charge: v})
		}
		after := v + (1-v)*op.Alpha
		b.charge[op.Row] = after
		b.lastT[op.Row] = op.Time
		if results != nil {
			results[i] = RefreshResult{ChargeBefore: v, ChargeAfter: after, ChargeRestored: after - v}
		}
	}
	return nil
}
