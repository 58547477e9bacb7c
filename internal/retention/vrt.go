package retention

import (
	"fmt"
	"math"
)

// VRT models variable retention time (the phenomenon AVATAR, which the
// paper cites, exists to handle): some rows toggle between a high-retention
// and a low-retention state as a metastable defect in one of their cells
// charges and discharges. A retention profile measured while a row was in
// its high state overestimates what the row does in its low state, which is
// what breaks purely static retention-aware refresh.
//
// The model is a deterministic random-telegraph process: a hash of the row
// index decides whether the row is VRT-prone, its dwell time, and its phase,
// so simulations are reproducible without storing per-row state.
type VRT struct {
	// AffectedFrac is the fraction of eligible rows that are VRT-prone.
	AffectedFrac float64
	// LowFactor multiplies the row's retention while in the low state.
	LowFactor float64
	// MeanDwell is the nominal time spent in each state (s); per-row dwell
	// varies deterministically around it.
	MeanDwell float64
	// MinRetention excludes rows whose retention is already defect-limited
	// (the weak tail): VRT modulates the dominant junction leakage of
	// otherwise-strong cells. Rows with true retention below this are not
	// modulated (s).
	MinRetention float64
	// Seed decorrelates the row hash across experiments.
	Seed int64
}

// DefaultVRT returns parameters in the range the VRT literature reports
// (AVATAR and the retention studies it cites): ~1% of rows affected, a low
// state that costs an order of magnitude of retention, dwell times of
// hundreds of milliseconds to seconds.
func DefaultVRT() VRT {
	return VRT{
		AffectedFrac: 0.01,
		LowFactor:    0.10,
		MeanDwell:    0.40,
		MinRetention: 0.30,
		Seed:         1,
	}
}

// Validate reports the first unusable parameter.
func (v VRT) Validate() error {
	// Each check is written so that NaN fails it: every comparison with NaN
	// is false.
	switch {
	case !(v.AffectedFrac >= 0 && v.AffectedFrac <= 1):
		return fmt.Errorf("retention: VRT AffectedFrac %g outside [0,1]", v.AffectedFrac)
	case !(v.LowFactor > 0 && v.LowFactor < 1):
		return fmt.Errorf("retention: VRT LowFactor %g outside (0,1)", v.LowFactor)
	case !(v.MeanDwell > 0):
		return fmt.Errorf("retention: VRT MeanDwell %g must be positive", v.MeanDwell)
	case !(v.MinRetention >= 0):
		return fmt.Errorf("retention: VRT MinRetention %g must be non-negative", v.MinRetention)
	}
	return nil
}

// hash64 is a splitmix64-style row hash.
func (v VRT) hash64(row int, salt uint64) uint64 {
	x := uint64(row)*0x9E3779B97F4A7C15 + uint64(v.Seed)*0xBF58476D1CE4E5B9 + salt
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func (v VRT) unit(row int, salt uint64) float64 {
	return float64(v.hash64(row, salt)>>11) / float64(1<<53)
}

// Affected reports whether the row with the given true retention is
// VRT-prone under this model.
func (v VRT) Affected(row int, tret float64) bool {
	if tret < v.MinRetention {
		return false
	}
	return v.unit(row, 0xA11CE) < v.AffectedFrac
}

// VRTRow is one row of a VRT process with its hashes taken: whether it is
// affected, its dwell and its phase. Bind it with VRT.Row once and step it
// through a walk with Segment; every per-instant method of VRT is a bound
// row evaluated once, so they all share its arithmetic.
type VRTRow struct {
	affected bool
	d, phase float64    // dwell time and phase offset (s)
	state    [2]float64 // retention multiplier of the high and the low state
}

// Row binds the row with true retention tret.
func (v VRT) Row(row int, tret float64) VRTRow {
	if !v.Affected(row, tret) {
		return VRTRow{}
	}
	// Dwell varies deterministically from 0.75x to 1.25x the mean.
	d := v.MeanDwell * (0.75 + 0.5*v.unit(row, 0xD3E11))
	return VRTRow{affected: true, d: d, phase: v.unit(row, 0x0FF5E7) * 2 * d, state: [2]float64{1, v.LowFactor}}
}

// Affected reports whether the process modulates the row: an unaffected
// row's Segment is (1, +Inf) at every t.
func (r VRTRow) Affected() bool { return r.affected }

// Segment returns the row's retention multiplier at t (1 in the high state,
// LowFactor in the low state) and the first instant strictly after t at
// which it may change (+Inf for an unaffected row). StepPast keeps a walk
// advancing when t lands exactly on a toggle at floating-point precision.
func (r VRTRow) Segment(t float64) (factor, next float64) {
	if !r.affected {
		return 1, math.Inf(1)
	}
	k := math.Floor((t + r.phase) / r.d)
	next = (k+1)*r.d - r.phase
	if next <= t {
		next = StepPast(t, 1e-9*r.d)
	}
	return r.state[int64(k)&1], next
}

// StepPast is where a change-point walk goes next when the boundary it
// computed for t does not lie after t, because t sits on that boundary at
// floating-point precision: t + eps, a small fraction of the period. Far
// from t = 0, where t + eps rounds back onto t, it is the next float64
// above t instead, so the walk still advances and meets every later
// boundary. The telegraph here and the scenario stressors share it.
func StepPast(t, eps float64) float64 {
	if next := t + eps; next > t {
		return next
	}
	return math.Nextafter(t, math.Inf(1))
}

// StateFactor returns the retention multiplier of the row at time t: 1 in
// the high state, LowFactor in the low state. Unaffected rows always return
// 1.
func (v VRT) StateFactor(row int, tret, t float64) float64 {
	factor, _ := v.Row(row, tret).Segment(t)
	return factor
}

// NextToggle returns the first instant strictly after t at which the row's
// telegraph state may change, or +Inf for rows the process does not affect.
// DecayFactor segments its walk at exactly these instants, so an external
// integrator segmenting at NextToggle boundaries, scaling by StateFactor and
// accumulating through a DecayWalk reproduces DecayFactor bit for bit - the
// contract the scenario layer's VRT stressor relies on.
func (v VRT) NextToggle(row int, tret, t float64) float64 {
	_, next := v.Row(row, tret).Segment(t)
	return next
}

// Segment returns StateFactor(row, tret, t) and NextToggle(row, tret, t)
// from one bound row.
func (v VRT) Segment(row int, tret, t float64) (factor, next float64) {
	return v.Row(row, tret).Segment(t)
}

// DecayFactor integrates the decay of a row with base retention tret over
// [t0, t1], honoring the telegraph state at each instant: the interval is
// cut at the row's toggles and the segments accumulate through a
// DecayWalk. For the exponential law the segments' exponents add, so the
// walk sums them and pays one Exp2. For other laws the per-segment factors
// multiply, which is exact at segment boundaries and conservative in
// between. An unaffected row is one segment: base.Factor(t1-t0, tret).
func (v VRT) DecayFactor(row int, tret, t0, t1 float64, base DecayModel) float64 {
	if t1 <= t0 {
		return 1
	}
	r := v.Row(row, tret)
	if !r.affected {
		return base.Factor(t1-t0, tret)
	}
	walk := NewDecayWalk(base)
	for t := t0; t < t1; {
		state, next := r.Segment(t)
		if next <= t || next > t1 {
			next = t1
		}
		walk.Add(next-t, tret*state)
		t = next
	}
	return walk.Factor()
}
