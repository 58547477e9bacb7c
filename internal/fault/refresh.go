package fault

import (
	"fmt"

	"vrldram/internal/core"
)

// RefreshFaults configures the refresh-operation injector: a marginal
// charge pump that delivers weak restores on a fraction of operations.
type RefreshFaults struct {
	// Rate is the per-operation probability of a truncated restore.
	Rate float64
	// AlphaFactor multiplies the operation's restore coefficient when the
	// fault fires: 0.5 models a half-strength restore, 0 a dropped refresh
	// (the row is sensed but nothing is written back).
	AlphaFactor float64
	Seed        int64
}

// DefaultRefreshFaults truncates 3% of operations to half strength.
func DefaultRefreshFaults(seed int64) RefreshFaults {
	return RefreshFaults{Rate: 0.03, AlphaFactor: 0.5, Seed: seed}
}

// Validate reports the first unusable parameter.
func (f RefreshFaults) Validate() error {
	// Each check is written so that NaN fails it.
	if !(f.Rate >= 0 && f.Rate <= 1) {
		return fmt.Errorf("fault: refresh fault rate %g outside [0,1]", f.Rate)
	}
	if !(f.AlphaFactor >= 0 && f.AlphaFactor < 1) {
		return fmt.Errorf("fault: AlphaFactor %g outside [0,1)", f.AlphaFactor)
	}
	return nil
}

// RefreshInjector wraps a core.Scheduler and weakens a fraction of the
// refresh operations it emits. It forwards every optional capability of the
// wrapped scheduler (Upgrader, Demoter, SenseMonitor, GuardReporter), so it
// can sit above a guard in the stack: faults then hit the guard's synthetic
// probation refreshes too, as a failing charge pump would.
type RefreshInjector struct {
	inner  core.Scheduler
	f      RefreshFaults
	n      uint64
	faults int64
}

// InjectRefreshFaults wraps the scheduler.
func InjectRefreshFaults(inner core.Scheduler, f RefreshFaults) (*RefreshInjector, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &RefreshInjector{inner: inner, f: f}, nil
}

// Name implements core.Scheduler.
func (s *RefreshInjector) Name() string { return s.inner.Name() + "+refresh-faults" }

// Period implements core.Scheduler.
func (s *RefreshInjector) Period(row int) float64 { return s.inner.Period(row) }

// MPRSF implements core.Scheduler.
func (s *RefreshInjector) MPRSF(row int) int { return s.inner.MPRSF(row) }

// OnAccess implements core.Scheduler.
func (s *RefreshInjector) OnAccess(row int, now float64) { s.inner.OnAccess(row, now) }

// RefreshOp implements core.Scheduler, weakening a seed-selected fraction
// of the operations the wrapped scheduler emits.
func (s *RefreshInjector) RefreshOp(row int, now float64) core.Op {
	op := s.inner.RefreshOp(row, now)
	s.n++
	if unit(s.f.Seed, s.n) < s.f.Rate {
		op.Alpha *= s.f.AlphaFactor
		s.faults++
	}
	return op
}

// FaultsInjected implements core.FaultCounter.
func (s *RefreshInjector) FaultsInjected() int64 {
	total := s.faults
	if fc, ok := s.inner.(core.FaultCounter); ok {
		total += fc.FaultsInjected()
	}
	return total
}

// OnSense forwards margin telemetry to a wrapped guard.
func (s *RefreshInjector) OnSense(row int, now, charge float64) {
	if m, ok := s.inner.(core.SenseMonitor); ok {
		m.OnSense(row, now, charge)
	}
}

// Demote forwards to a wrapped core.Demoter.
func (s *RefreshInjector) Demote(row int) {
	if d, ok := s.inner.(core.Demoter); ok {
		d.Demote(row)
	}
}

// Upgrade forwards to a wrapped core.Upgrader.
func (s *RefreshInjector) Upgrade(row int) {
	if u, ok := s.inner.(core.Upgrader); ok {
		u.Upgrade(row)
	}
}

// Promote forwards to a wrapped core.Promoter, so a patrol scrubber can
// heal rows through an injector sitting above the guard.
func (s *RefreshInjector) Promote(row int) {
	if p, ok := s.inner.(core.Promoter); ok {
		p.Promote(row)
	}
}

// GuardSnapshot forwards to a wrapped core.GuardReporter.
func (s *RefreshInjector) GuardSnapshot(now float64) core.GuardStats {
	if g, ok := s.inner.(core.GuardReporter); ok {
		return g.GuardSnapshot(now)
	}
	return core.GuardStats{}
}
