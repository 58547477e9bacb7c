// Package dram models a DRAM bank at the granularity the VRL-DRAM mechanism
// cares about: the normalized charge of each row's weakest cell, decaying
// according to the row's true retention time and the stored data pattern,
// restored by refresh operations and row activations.
//
// The bank is the mechanism's safety net: every refresh and access first
// senses the row, and a row whose weakest cell has fallen below the sensing
// limit records a data-integrity violation. A correctly computed MPRSF must
// never produce one; the failure-injection tests show that an unsafe
// configuration does.
package dram

import (
	"fmt"
	"math"

	"vrldram/internal/device"
	"vrldram/internal/retention"
)

// Violation records a data-integrity failure: a row was sensed while its
// weakest cell was below the sensing limit.
type Violation struct {
	Row    int
	Time   float64 // seconds (Seconds of the sensing tick)
	Charge float64 // normalized charge at sensing
}

// Modulator modulates per-row retention over time: DecayFactor integrates
// the decay of a row with base retention tret across [t0, t1] under the
// modulation. retention.VRT satisfies it directly; internal/scenario's Env
// satisfies it for composed stress schedules (the interface lives here,
// structurally, so neither package imports the other).
type Modulator interface {
	DecayFactor(row int, tret, t0, t1 float64, base retention.DecayModel) float64
}

// FlooredModulator is an optional Modulator capability the sense bound keys
// on: MinScale returns a retention scale no larger than any the modulation
// applies to any row at any time; a return <= 0 means none is known.
// internal/scenario's Env implements it.
type FlooredModulator interface {
	Modulator
	MinScale() float64
}

// Bank tracks per-row weakest-cell charge lazily: each row stores its charge
// at the time of its last restore, and decay is applied on demand.
type Bank struct {
	Geom    device.BankGeometry
	Profile *retention.BankProfile
	Decay   retention.DecayModel
	Pattern retention.Pattern

	// VRT, when non-nil, modulates per-row retention with the
	// random-telegraph process of retention.VRT. Static profiles do not see
	// it - that is the point of the VRT experiments.
	VRT *retention.VRT

	// mod, when non-nil, takes precedence over VRT: a composed stress
	// schedule (internal/scenario) that already folds any VRT process into
	// its segment integration. A bank runs at most one retention view, so
	// attaching both is refused.
	mod Modulator

	// Row state is a structure-of-arrays: the fast-forward kernel
	// (macro.go) and the plain CheckAll sweep stream over these slices
	// directly, so they are never appended to; the two float columns share
	// one backing array.
	charge []float64 // normalized charge at lastT
	lastT  []int64   // tick the charge was last set
	tret   []float64 // effective retention under the stored pattern (s)

	// tretPattern is the pattern tret was computed for; retentions()
	// recomputes the slice if the exported Pattern field was changed after
	// construction, keeping the precomputed column equal to what
	// effectiveRetention returns live.
	tretPattern retention.Pattern

	// retired rows have been quarantined by a spare-row remap (see
	// internal/scrub): their data lives on an implicitly healthy spare, so
	// sensing the weak row no longer records integrity violations.
	retired []bool

	violations []Violation

	// slope caches boundSlope for the decay law kind slopeLaw and the VRT
	// process slopeVRT it was computed under; SetVRT and SetModulator mark
	// it stale.
	slope    float64
	slopeLaw decayLaw
	slopeVRT *retention.VRT
}

// NewBank returns a bank with every row fully charged at t = 0.
func NewBank(profile *retention.BankProfile, decay retention.DecayModel, pattern retention.Pattern) (*Bank, error) {
	if profile == nil {
		return nil, fmt.Errorf("dram: nil profile")
	}
	if decay == nil {
		decay = retention.ExpDecay{}
	}
	if len(profile.True) != profile.Geom.Rows {
		return nil, fmt.Errorf("dram: profile has %d rows, geometry says %d", len(profile.True), profile.Geom.Rows)
	}
	rows := profile.Geom.Rows
	backing := make([]float64, 2*rows)
	b := &Bank{
		Geom:    profile.Geom,
		Profile: profile,
		Decay:   decay,
		Pattern: pattern,
		charge:  backing[0*rows : 1*rows : 1*rows],
		lastT:   make([]int64, rows),
		tret:    backing[1*rows : 2*rows : 2*rows],
		retired: make([]bool, rows),
	}
	for r := range b.charge {
		b.charge[r] = 1
	}
	b.fillRetentions()
	return b, nil
}

// fillRetentions precomputes the tret column with exactly the expression
// effectiveRetention evaluates, so the columnar kernels read values that
// are bit-identical to the scalar path's.
func (b *Bank) fillRetentions() {
	pf := retention.PatternFactor(b.Pattern)
	for r := range b.tret {
		b.tret[r] = b.Profile.True[r] * pf
	}
	b.tretPattern = b.Pattern
}

// retentions returns the precomputed per-row effective retention column,
// refreshing it first if the Pattern field was mutated since the last fill.
func (b *Bank) retentions() []float64 {
	if b.tretPattern != b.Pattern {
		b.fillRetentions()
	}
	return b.tret
}

// effectiveRetention is the row's true retention under the stored pattern.
func (b *Bank) effectiveRetention(row int) float64 {
	return b.Profile.True[row] * retention.PatternFactor(b.Pattern)
}

// SetVRT attaches a variable-retention-time process to the bank; pass nil
// to detach. Returns an error for invalid parameters or if a scenario
// modulator is already attached (fold the VRT into the scenario instead).
func (b *Bank) SetVRT(v *retention.VRT) error {
	if v != nil {
		if err := v.Validate(); err != nil {
			return err
		}
		if b.mod != nil {
			return fmt.Errorf("dram: bank already carries a scenario modulator; compose the VRT into it")
		}
	}
	b.VRT = v
	b.slopeLaw = lawStale
	return nil
}

// SetModulator attaches a composed retention modulation (a scenario Env) to
// the bank; pass nil to detach. Mutually exclusive with SetVRT: a stress
// schedule that wants a telegraph process composes it as one of its own
// stressors, so the decay integration stays exact across overlapping
// change-points.
func (b *Bank) SetModulator(m Modulator) error {
	if m != nil && b.VRT != nil {
		return fmt.Errorf("dram: bank already carries a VRT process; compose it into the scenario")
	}
	b.mod = m
	b.slopeLaw = lawStale
	return nil
}

// ChargeAt returns the row's normalized weakest-cell charge at tick t
// (t must not precede the row's last restore).
func (b *Bank) ChargeAt(row int, t int64) (float64, error) {
	if row < 0 || row >= b.Geom.Rows {
		return 0, fmt.Errorf("dram: row %d out of range [0,%d)", row, b.Geom.Rows)
	}
	dt := t - b.lastT[row]
	if dt < 0 {
		return 0, errBackwards(row, t, b.lastT[row])
	}
	tret := b.effectiveRetention(row)
	if b.mod != nil {
		return b.charge[row] * b.mod.DecayFactor(row, tret, Seconds(b.lastT[row]), Seconds(t), b.Decay), nil
	}
	if b.VRT != nil {
		return b.charge[row] * b.VRT.DecayFactor(row, tret, Seconds(b.lastT[row]), Seconds(t), b.Decay), nil
	}
	return b.charge[row] * b.Decay.Factor(Seconds(dt), tret), nil
}

// errBackwards is the error of a sense at tick t before the row's last
// restore at tick last.
func errBackwards(row int, t, last int64) error {
	return fmt.Errorf("dram: time went backwards for row %d: %.6g < %.6g", row, Seconds(t), Seconds(last))
}

// senseSlack is the relative margin by which the decay bound must clear a
// limit: orders of magnitude wider than the rounding of the exact decay
// evaluation (a few ulps per segment of a modulated walk).
const senseSlack = 1e-9

// decayLaw is the kind of a bank's decay model, as the sense bound and the
// plain sweep distinguish it.
type decayLaw uint8

const (
	lawStale  decayLaw = iota // no law: the cached slope must be recomputed
	lawExp                    // retention.ExpDecay
	lawLinear                 // retention.LinearDecay
	lawOther                  // any other DecayModel
)

func lawOf(d retention.DecayModel) decayLaw {
	switch d.(type) {
	case retention.ExpDecay:
		return lawExp
	case retention.LinearDecay:
		return lawLinear
	}
	return lawOther
}

// boundSlope returns the slope s of the bank's linear decay bound: a row
// holding charge c at its last restore holds at least c*(1 - s*dt/tret) dt
// seconds later. Under ExpDecay s is ln 2, as 2^-x >= 1 - x*ln 2; under
// LinearDecay it is 1 - SenseLimit, as the product of a walk's per-segment
// factors 1 - a_i is at least 1 - sum(a_i). Either is divided by the lowest
// retention scale the bank's retention view applies: 1 for a plain bank,
// the VRT's LowFactor, a modulator's MinScale. Any other decay law, or a
// modulator without a floor, gets +Inf, which clears no read.
//
// The slope is cached: it is recomputed when the Decay field's law kind or
// the VRT field differs from the ones it was computed under, and after
// SetVRT or SetModulator.
func (b *Bank) boundSlope() float64 {
	if law := lawOf(b.Decay); law != b.slopeLaw || b.VRT != b.slopeVRT {
		b.slope, b.slopeLaw, b.slopeVRT = b.computeSlope(law), law, b.VRT
	}
	return b.slope
}

// computeSlope is boundSlope's uncached evaluation under the law kind law.
func (b *Bank) computeSlope(law decayLaw) float64 {
	var k float64
	switch law {
	case lawExp:
		k = math.Ln2
	case lawLinear:
		k = 1 - retention.SenseLimit
	default:
		return math.Inf(1)
	}
	floor := 1.0
	if b.mod != nil {
		fm, ok := b.mod.(FlooredModulator)
		if !ok {
			return math.Inf(1)
		}
		floor = fm.MinScale()
	} else if b.VRT != nil {
		floor = math.Min(1, b.VRT.LowFactor)
	}
	if !(floor > 0) {
		return math.Inf(1)
	}
	return k / floor
}

// cleared reports whether the decay bound of slope proves the row's charge
// at tick t (not before its last restore) to be at least limit; false
// proves nothing. The elapsed time is taken as the exact evaluation takes
// it, so the two see the same interval. The tret column must be current
// (see retentions).
func (b *Bank) cleared(slope float64, row int, t int64, limit float64) bool {
	var dt float64
	if b.mod != nil || b.VRT != nil {
		dt = Seconds(t) - Seconds(b.lastT[row])
	} else {
		dt = Seconds(t - b.lastT[row])
	}
	return b.charge[row]*(1-slope*dt/b.tret[row]) >= limit*(1+senseSlack)
}

// sense reads the row's charge at tick t, recording a violation if it is
// below the sensing limit.
func (b *Bank) sense(row int, t int64) (float64, error) {
	v, err := b.ChargeAt(row, t)
	if err != nil {
		return 0, err
	}
	if v < retention.SenseLimit && !b.retired[row] {
		b.violations = append(b.violations, Violation{Row: row, Time: Seconds(t), Charge: v})
	}
	return v, nil
}

// Retire quarantines the row: its data has been relocated to a spare, so
// the weak row's sub-limit senses stop counting as integrity violations.
// Retirement is permanent for the life of the bank.
func (b *Bank) Retire(row int) error {
	if row < 0 || row >= b.Geom.Rows {
		return fmt.Errorf("dram: row %d out of range [0,%d)", row, b.Geom.Rows)
	}
	b.retired[row] = true
	return nil
}

// Retired returns the retired rows in increasing order.
func (b *Bank) Retired() []int {
	n := 0
	for _, dead := range b.retired {
		if dead {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for r, dead := range b.retired {
		if dead {
			out = append(out, r)
		}
	}
	return out
}

// RefreshResult reports what one refresh operation did.
type RefreshResult struct {
	ChargeBefore   float64
	ChargeAfter    float64
	ChargeRestored float64 // normalized charge delivered (after - before)
}

// Refresh senses the row at tick t and restores its charge by the refresh
// restore coefficient alpha: v' = v + (1-v)*alpha (paper Eq. 12 in
// normalized form). A full refresh has alpha ~ 1; a partial refresh the
// alpha of its truncated post-sensing window.
func (b *Bank) Refresh(row int, t int64, alpha float64) (RefreshResult, error) {
	if !(alpha >= 0 && alpha <= 1) { // rejects NaN too
		return RefreshResult{}, fmt.Errorf("dram: restore alpha %g outside [0,1]", alpha)
	}
	v, err := b.sense(row, t)
	if err != nil {
		return RefreshResult{}, err
	}
	after := v + (1-v)*alpha
	b.charge[row] = after
	b.lastT[row] = t
	return RefreshResult{ChargeBefore: v, ChargeAfter: after, ChargeRestored: after - v}, nil
}

// Access senses and activates the row at tick t: the sense records a
// violation if the charge is below the sensing limit, and the activation
// fully restores the row (the property VRL-Access exploits). low reports
// whether the sensed charge was below the caller's limit, and only then is
// charge set, to the exact sensed charge; a caller that needs no decision
// passes limit 0. A read the decay bound clears against both limits skips
// the exact decay evaluation; the exact sense also reports a row out of
// range or a tick before the row's last restore.
func (b *Bank) Access(row int, t int64, limit float64) (charge float64, low bool, err error) {
	b.retentions()
	if row < 0 || row >= b.Geom.Rows || t < b.lastT[row] ||
		!b.cleared(b.boundSlope(), row, t, math.Max(limit, retention.SenseLimit)) {
		v, err := b.sense(row, t)
		if err != nil {
			return 0, false, err
		}
		if v < limit {
			charge, low = v, true
		}
	}
	b.charge[row] = 1
	b.lastT[row] = t
	return charge, low, nil
}

// Violations returns a copy of the integrity violations recorded so far.
// (A copy, like State: the internal slice is live checkpoint state, and an
// aliased return would let callers corrupt it.)
func (b *Bank) Violations() []Violation {
	return append([]Violation(nil), b.violations...)
}

// ViolationCount returns how many integrity violations have been recorded.
func (b *Bank) ViolationCount() int { return len(b.violations) }

// State is the bank's mutable simulation state: everything a checkpoint
// must capture to resume a run bit-identically. All slices are deep copies.
type State struct {
	Charge     []float64 // normalized charge at LastT, per row
	LastT      []int64   // tick of each row's last restore
	Violations []Violation
	Retired    []int // rows quarantined by spare-row remapping, increasing
}

// State snapshots the bank's mutable state.
func (b *Bank) State() State {
	return State{
		Charge:     append([]float64(nil), b.charge...),
		LastT:      append([]int64(nil), b.lastT...),
		Violations: append([]Violation(nil), b.violations...),
		Retired:    b.Retired(),
	}
}

// SetState replaces the bank's mutable state with a snapshot taken from a
// bank of the same geometry. The snapshot is copied, not aliased.
func (b *Bank) SetState(s State) error {
	if len(s.Charge) != b.Geom.Rows || len(s.LastT) != b.Geom.Rows {
		return fmt.Errorf("dram: state has %d/%d rows, bank has %d", len(s.Charge), len(s.LastT), b.Geom.Rows)
	}
	for r, c := range s.Charge {
		if !(c >= 0 && c <= 1) { // rejects NaN too
			return fmt.Errorf("dram: state charge %g for row %d outside [0,1]", c, r)
		}
	}
	for _, r := range s.Retired {
		if r < 0 || r >= b.Geom.Rows {
			return fmt.Errorf("dram: state retires row %d outside [0,%d)", r, b.Geom.Rows)
		}
	}
	copy(b.charge, s.Charge)
	copy(b.lastT, s.LastT)
	b.violations = append(b.violations[:0], s.Violations...)
	for r := range b.retired {
		b.retired[r] = false
	}
	for _, r := range s.Retired {
		b.retired[r] = true
	}
	return nil
}

// CheckAll senses every row at tick t and returns the number of rows below
// the sensing limit (recording violations for each). Retired rows are
// skipped: their data lives on a spare. Useful as an end-of-simulation
// integrity sweep.
//
// Rows the decay bound clears are skipped without evaluating their decay;
// they could record no violation. For the plain-decay configuration the
// sweep runs as one tight loop over the charge/lastT/tret columns. Either
// way the violations are the scalar path's, in the same row order.
func (b *Bank) CheckAll(t int64) (int, error) {
	slope := b.boundSlope()
	b.retentions()
	if b.mod == nil && b.VRT == nil && b.slopeLaw != lawOther {
		return b.checkAllPlain(slope, b.slopeLaw == lawExp, t)
	}
	bad := 0
	for r := 0; r < b.Geom.Rows; r++ {
		if b.retired[r] || t >= b.lastT[r] && b.cleared(slope, r, t, retention.SenseLimit) {
			continue
		}
		v, err := b.sense(r, t)
		if err != nil {
			return bad, err
		}
		if v < retention.SenseLimit {
			bad++
		}
	}
	return bad, nil
}

// checkAllPlain is CheckAll for the unmodulated decay laws, evaluated
// columnar: identical arithmetic, violations appended in the same row order.
func (b *Bank) checkAllPlain(slope float64, exp bool, t int64) (int, error) {
	tret := b.tret
	bad := 0
	for r := 0; r < b.Geom.Rows; r++ {
		if b.retired[r] {
			continue
		}
		dt := t - b.lastT[r]
		if dt < 0 {
			return bad, errBackwards(r, t, b.lastT[r])
		}
		if b.cleared(slope, r, t, retention.SenseLimit) {
			continue
		}
		v := b.charge[r] * decayPlain(exp, Seconds(dt), tret[r])
		if v < retention.SenseLimit {
			b.violations = append(b.violations, Violation{Row: r, Time: Seconds(t), Charge: v})
			bad++
		}
	}
	return bad, nil
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
		return retention.Exp2(-dt / tret)
	}
	f := 1 - (1-retention.SenseLimit)*dt/tret
	if f < 0 {
		return 0
	}
	return f
}
