package retention

import (
	"fmt"
	"math"
)

// DecayModel maps elapsed time and a cell's retention time to the
// multiplicative decay of its normalized charge. Every model satisfies
// Factor(0, t) = 1 and Factor(t, t) = SenseLimit: a full cell decays to the
// sensing limit exactly at its retention time.
type DecayModel interface {
	// Factor returns the fraction of charge remaining after dt seconds on a
	// cell with retention time tret, relative to the charge at the start of
	// the interval.
	Factor(dt, tret float64) float64
	// Name identifies the model in experiment output.
	Name() string
}

// ExpDecay is the default leakage law: charge decays exponentially, the
// behaviour of a capacitor leaking through its (roughly ohmic) leakage
// paths. v(dt) = v0 * 2^(-dt/tret), so v(tret) = v0/2.
type ExpDecay struct{}

// Factor implements DecayModel.
func (ExpDecay) Factor(dt, tret float64) float64 {
	if dt <= 0 {
		return 1
	}
	if tret <= 0 {
		return 0
	}
	return math.Exp2(-dt / tret)
}

// Name implements DecayModel.
func (ExpDecay) Name() string { return "exponential" }

// DecayWalk integrates one decay over consecutive segments of a piecewise
// retention schedule: Add each segment's length and retention in order,
// then read Factor once. Under ExpDecay the segments' exponents add, so the
// walk sums dt/tret and pays a single Exp2(-sum) at the end instead of one
// Exp2 and one product rounding per segment. Under any other law it is the
// product of base.Factor over the segments. Either way a walk of one
// segment is base.Factor(dt, tret) bit for bit.
type DecayWalk struct {
	base DecayModel // nil under ExpDecay
	acc  float64    // ExpDecay: the exponent sum; otherwise: the factor product
}

// NewDecayWalk starts an empty walk (Factor 1) under base.
func NewDecayWalk(base DecayModel) DecayWalk {
	if _, ok := base.(ExpDecay); ok {
		return DecayWalk{}
	}
	return DecayWalk{base: base, acc: 1}
}

// Add appends a segment of length dt at retention tret. Under ExpDecay it
// keeps ExpDecay.Factor's special cases: dt <= 0 adds nothing, a
// non-positive retention decays the walk to 0, and NaN propagates.
func (w *DecayWalk) Add(dt, tret float64) {
	if w.base == nil && dt > 0 && tret > 0 {
		w.acc += dt / tret
	} else {
		w.add(dt, tret)
	}
}

// add is Add's general case, kept out of line so the common exponential
// segment inlines into the walk.
func (w *DecayWalk) add(dt, tret float64) {
	switch {
	case w.base != nil:
		w.acc *= w.base.Factor(dt, tret)
	case dt <= 0:
	case tret <= 0:
		w.acc += math.Inf(1)
	default: // a NaN dt or tret: the sum turns NaN
		w.acc += dt / tret
	}
}

// Factor returns the fraction of charge remaining after the whole walk.
func (w *DecayWalk) Factor() float64 {
	if w.base != nil {
		return w.acc
	}
	return math.Exp2(-w.acc)
}

// LinearDecay is the ablation alternative: charge decays linearly,
// v(dt) = v0 - (1-SenseLimit)*dt/tret (clamped at 0), matching the same
// full-to-threshold retention time. Early in the period the exponential law
// loses charge faster (its initial slope is -ln2/tret versus linear's
// -0.5/tret), so exponential is the conservative choice for MPRSF and
// linear assigns weakly higher values.
//
// Note the linear law is an absolute ramp; Factor converts it to the
// multiplicative form the charge tracker uses, which is exact for a cell
// starting the interval fully charged and conservative otherwise.
type LinearDecay struct{}

// Factor implements DecayModel.
func (LinearDecay) Factor(dt, tret float64) float64 {
	if dt <= 0 {
		return 1
	}
	if tret <= 0 {
		return 0
	}
	f := 1 - (1-SenseLimit)*dt/tret
	if f < 0 {
		return 0
	}
	return f
}

// Name implements DecayModel.
func (LinearDecay) Name() string { return "linear" }

// DecayByName returns the named decay model ("exponential" or "linear").
func DecayByName(name string) (DecayModel, error) {
	switch name {
	case "exponential", "exp", "":
		return ExpDecay{}, nil
	case "linear", "lin":
		return LinearDecay{}, nil
	default:
		return nil, fmt.Errorf("retention: unknown decay model %q", name)
	}
}
