// Package guard implements a graceful-degradation safety controller for
// retention-aware refresh: a core.Scheduler wrapper that no longer trusts
// the retention profile unconditionally.
//
// The controller runs a per-row degradation ladder over the refresh-period
// bins, extended downward by a floor period (the DDR "2x refresh" derated
// mode). Every row starts on PROBATION at the floor with full-latency
// refreshes and must earn its way up to the nominal bin the wrapped
// scheduler assigned: promotion one rung at a time, only after a streak of
// clean senses whose observed charge PREDICTS a safe margin at the next
// rung (for the exponential leakage law the prediction charge^(p2/p1) is
// exact; for other laws it is the conservative estimate). Rows whose sensed
// margin erodes below the warn threshold are demoted a rung on the spot -
// the generalization of the one-shot AVATAR Upgrade - and rows that alarm
// repeatedly are escalated: pinned to full-latency refreshes with promotion
// disabled. A global circuit breaker watches the sub-limit sensing rate and
// drops the whole bank to the floor period when it trips, with a minimum
// hold time plus a clean-window requirement (hysteresis) before recovery,
// so a transient excursion does not pin the system in the slow mode
// forever.
//
// The guard is itself a core.Scheduler, so it composes with the simulator,
// the command-level controller, and the fault injectors of internal/fault.
package guard

import (
	"fmt"
	"math"

	"vrldram/internal/core"
	"vrldram/internal/retention"
)

// Config tunes the controller. The zero value of every field selects the
// documented default.
type Config struct {
	// Restore supplies the full-refresh operation the guard issues while a
	// row is off its nominal schedule. Required.
	Restore core.RestoreModel

	// Floor is the most aggressive period on the ladder (default 32 ms, the
	// derated double-rate refresh mode). Probation and breaker operation run
	// here.
	Floor float64
	// Ladder lists the allowed periods; defaults to Floor plus the RAIDR
	// bins. It is sorted and deduplicated.
	Ladder []float64

	// Warn is the sensed-charge threshold below which a row is demoted one
	// rung (default 0.65; senses below retention.SenseLimit always demote
	// and feed the breaker).
	Warn float64
	// PromoteMargin is the minimum PREDICTED charge at the next rung's
	// period required to promote (default 0.62: a row sensing charge c with a
	// near-full restore survives one half-strength restore when
	// c*(1+c)/2 >= 0.5, i.e. c >= 0.618, so promoted rows tolerate a single
	// truncated refresh without crossing the sensing limit).
	PromoteMargin float64
	// PromoteAfter is the clean-sense streak required before a promotion is
	// attempted (default 2).
	PromoteAfter int
	// EscalateAfter pins a row to full-latency refreshes (promotion
	// disabled) after this many alarms (default 3).
	EscalateAfter int

	// BreakerWindow is the sliding window (s) over which sub-limit senses
	// are counted (default 64 ms).
	BreakerWindow float64
	// BreakerTrip is the sub-limit sense count within the window that trips
	// the breaker (default 8).
	BreakerTrip int
	// BreakerHold is the minimum time (s) the breaker stays tripped; after
	// the hold, recovery additionally requires a clean window (default
	// 128 ms).
	BreakerHold float64
}

func (c Config) withDefaults() Config {
	if c.Floor == 0 {
		c.Floor = 0.032
	}
	if c.Ladder == nil {
		c.Ladder = append([]float64{c.Floor}, retention.RAIDRBins...)
	}
	if c.Warn == 0 {
		c.Warn = 0.65
	}
	if c.PromoteMargin == 0 {
		c.PromoteMargin = 0.62
	}
	if c.PromoteAfter == 0 {
		c.PromoteAfter = 2
	}
	if c.EscalateAfter == 0 {
		c.EscalateAfter = 3
	}
	if c.BreakerWindow == 0 {
		c.BreakerWindow = 0.064
	}
	if c.BreakerTrip == 0 {
		c.BreakerTrip = 8
	}
	if c.BreakerHold == 0 {
		c.BreakerHold = 0.128
	}
	return c
}

// Validate reports the first unusable field after defaulting.
func (c Config) Validate() error {
	if err := c.Restore.Validate(); err != nil {
		return err
	}
	switch {
	case c.Floor <= 0:
		return fmt.Errorf("guard: floor period %g must be positive", c.Floor)
	case len(c.Ladder) == 0:
		return fmt.Errorf("guard: empty ladder")
	case !(retention.SenseLimit < c.Warn && c.Warn < 1):
		return fmt.Errorf("guard: warn threshold %g outside (%g,1)", c.Warn, retention.SenseLimit)
	case c.PromoteMargin <= retention.SenseLimit || c.PromoteMargin >= 1:
		return fmt.Errorf("guard: promote margin %g outside (%g,1)", c.PromoteMargin, retention.SenseLimit)
	case c.PromoteAfter < 1:
		return fmt.Errorf("guard: PromoteAfter %d must be >= 1", c.PromoteAfter)
	case c.EscalateAfter < 1:
		return fmt.Errorf("guard: EscalateAfter %d must be >= 1", c.EscalateAfter)
	case c.BreakerWindow <= 0 || c.BreakerHold <= 0:
		return fmt.Errorf("guard: breaker window/hold must be positive")
	case c.BreakerTrip < 1:
		return fmt.Errorf("guard: BreakerTrip %d must be >= 1", c.BreakerTrip)
	}
	for _, p := range c.Ladder {
		if p <= 0 {
			return fmt.Errorf("guard: ladder period %g must be positive", p)
		}
	}
	return nil
}

// rowState is the per-row controller state.
type rowState struct {
	rung        int // index into ladder; capped by nominal
	nominal     int // ladder rung of the wrapped scheduler's period
	cleanStreak int
	alarms      int
	escalated   bool
}

// Guard wraps a scheduler with the degradation controller.
type Guard struct {
	inner  core.Scheduler
	cfg    Config
	ladder []float64
	rows   []rowState

	tripped   bool
	tripAt    float64
	subLimits []float64 // times of recent sub-limit senses (breaker window)

	stats core.GuardStats
}

// New wraps inner for a bank of the given row count.
func New(inner core.Scheduler, rows int, cfg Config) (*Guard, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rows <= 0 {
		return nil, fmt.Errorf("guard: row count %d must be positive", rows)
	}
	ladder := retention.SortedBins(cfg.Ladder)
	// Deduplicate (SortedBins copies and sorts).
	uniq := ladder[:0]
	for i, p := range ladder {
		if i == 0 || p != ladder[i-1] {
			uniq = append(uniq, p)
		}
	}
	ladder = uniq
	g := &Guard{inner: inner, cfg: cfg, ladder: ladder, rows: make([]rowState, rows)}
	for r := range g.rows {
		p := inner.Period(r)
		nominal := 0
		for i, lp := range ladder {
			if lp <= p*(1+1e-12) {
				nominal = i
			}
		}
		g.rows[r].nominal = nominal
		g.rows[r].rung = 0 // probation: start at the floor
	}
	return g, nil
}

// Name implements core.Scheduler.
func (g *Guard) Name() string { return g.inner.Name() + "+guard" }

// atNominal reports whether the row currently runs the wrapped scheduler's
// own schedule.
func (g *Guard) atNominal(row int) bool {
	s := &g.rows[row]
	return !g.tripped && !s.escalated && s.rung >= s.nominal
}

// Period implements core.Scheduler: the floor while the breaker is tripped,
// the row's ladder rung while degraded, the wrapped scheduler's period at
// nominal.
func (g *Guard) Period(row int) float64 {
	if g.tripped {
		return g.ladder[0]
	}
	s := &g.rows[row]
	if s.rung >= s.nominal && !s.escalated {
		return g.inner.Period(row)
	}
	return g.ladder[s.rung]
}

// MPRSF implements core.Scheduler: partial refreshes are a privilege of the
// nominal schedule.
func (g *Guard) MPRSF(row int) int {
	if g.atNominal(row) {
		return g.inner.MPRSF(row)
	}
	return 0
}

// OnAccess implements core.Scheduler.
func (g *Guard) OnAccess(row int, now float64) { g.inner.OnAccess(row, now) }

// StablePeriodUntil implements core.SteadyScheduler with the conservative
// bound: the controller re-evaluates its ladder on every sense (OnSense can
// demote, escalate, or trip the breaker on the very next event), so a
// guarded schedule is never stable past now. The fast-forward engine reads
// this as "do not fast-forward" - exactly right, since skipping senses would
// skip the controller's inputs.
func (g *Guard) StablePeriodUntil(_ int, now float64) float64 { return now }

// RefreshOp implements core.Scheduler: full-latency refreshes off-nominal,
// the wrapped scheduler's operation (including its partial-refresh
// counters, which only advance at nominal) otherwise.
func (g *Guard) RefreshOp(row int, now float64) core.Op {
	if g.atNominal(row) {
		return g.inner.RefreshOp(row, now)
	}
	rm := g.cfg.Restore
	return core.Op{Full: true, Cycles: rm.FullCycles, Alpha: rm.AlphaFull}
}

// demote steps the row one rung down and books the alarm; escalation pins
// the row (no further promotion, full-latency ops) once it has alarmed
// EscalateAfter times.
func (g *Guard) demote(row int) {
	s := &g.rows[row]
	s.cleanStreak = 0
	s.alarms++
	g.stats.Alarms++
	if s.rung > 0 {
		s.rung--
		g.stats.Demotions++
	}
	if !s.escalated && s.alarms >= g.cfg.EscalateAfter {
		s.escalated = true
		g.stats.Escalations++
	}
}

// Demote implements core.Demoter: the externally driven (e.g. ECC-corrected
// error) one-rung demotion.
func (g *Guard) Demote(row int) {
	if row < 0 || row >= len(g.rows) {
		return
	}
	g.demote(row)
}

// Promote implements core.Promoter: an external repair authority (the
// patrol scrubber after K consecutive clean reads) vouches for the row, so
// it steps one rung back toward its nominal schedule. An escalated row has
// its escalation lifted first - the scrubber's verify phase is exactly the
// evidence escalation was waiting for - and its alarm history is cleared so
// a later isolated alarm does not instantly re-escalate it.
func (g *Guard) Promote(row int) {
	if row < 0 || row >= len(g.rows) {
		return
	}
	s := &g.rows[row]
	if s.escalated {
		s.escalated = false
		s.alarms = 0
		s.cleanStreak = 0
		return
	}
	if s.rung < s.nominal {
		s.rung++
		s.cleanStreak = 0
		g.stats.Promotions++
	}
}

// Upgrade implements core.Upgrader for compatibility with the AVATAR hook:
// it escalates the row immediately (full-latency at the floor).
func (g *Guard) Upgrade(row int) {
	if row < 0 || row >= len(g.rows) {
		return
	}
	s := &g.rows[row]
	s.rung = 0
	s.cleanStreak = 0
	if !s.escalated {
		s.escalated = true
		g.stats.Escalations++
	}
}

// OnSense implements core.SenseMonitor: the controller's main input. The
// simulator reports every refresh operation's pre-restore charge here.
func (g *Guard) OnSense(row int, now, charge float64) {
	if row < 0 || row >= len(g.rows) {
		return
	}
	// Slide the breaker window.
	cut := now - g.cfg.BreakerWindow
	for len(g.subLimits) > 0 && g.subLimits[0] < cut {
		g.subLimits = g.subLimits[1:]
	}

	switch {
	case charge < retention.SenseLimit:
		// Data already at risk: maximal per-row response plus breaker input.
		g.subLimits = append(g.subLimits, now)
		s := &g.rows[row]
		g.demote(row)
		s.rung = 0
		if !g.tripped && len(g.subLimits) >= g.cfg.BreakerTrip {
			g.tripped = true
			g.tripAt = now
			g.stats.BreakerTrips++
		}
	case charge < g.cfg.Warn:
		g.demote(row)
	default:
		s := &g.rows[row]
		s.cleanStreak++
		if !g.tripped && !s.escalated && s.rung < s.nominal && s.cleanStreak >= g.cfg.PromoteAfter {
			if g.predict(row, charge) >= g.cfg.PromoteMargin {
				s.rung++
				s.cleanStreak = 0
				g.stats.Promotions++
			}
		}
	}

	// Hysteresis: recover only after the hold AND a clean window.
	if g.tripped && now >= g.tripAt+g.cfg.BreakerHold && len(g.subLimits) == 0 {
		g.tripped = false
		g.stats.TimeDegraded += now - g.tripAt
	}
}

// predict estimates the sensed charge at the row's next rung from the
// charge just observed at the current one: both senses follow a (near-)full
// restore, so under the exponential law charge = 2^(-p/teff) and the next
// rung sees charge^(p2/p1) exactly. Slower-than-exponential laws decay
// faster late in the period, making the estimate conservative there.
func (g *Guard) predict(row int, charge float64) float64 {
	s := &g.rows[row]
	p1 := g.Period(row)
	var p2 float64
	if s.rung+1 >= s.nominal {
		p2 = g.inner.Period(row)
	} else {
		p2 = g.ladder[s.rung+1]
	}
	if p1 <= 0 || p2 <= p1 {
		return charge
	}
	return math.Pow(charge, p2/p1)
}

// Tripped reports whether the circuit breaker currently holds the bank at
// the floor period.
func (g *Guard) Tripped() bool { return g.tripped }

// RowRung returns the row's current ladder period and whether the row has
// been escalated (diagnostics).
func (g *Guard) RowRung(row int) (period float64, escalated bool) {
	if row < 0 || row >= len(g.rows) {
		return 0, false
	}
	return g.Period(row), g.rows[row].escalated
}

// GuardSnapshot implements core.GuardReporter: the counters so far, with a
// still-open degraded interval closed at now.
func (g *Guard) GuardSnapshot(now float64) core.GuardStats {
	st := g.stats
	if g.tripped && now > g.tripAt {
		st.TimeDegraded += now - g.tripAt
	}
	return st
}

// SnapshotState implements core.Snapshotter: the per-row ladder state, the
// breaker, the counters, and - nested - the wrapped scheduler's own state,
// so snapshotting the guard snapshots the whole stack beneath it. The
// wrapped scheduler must itself be a core.Snapshotter.
func (g *Guard) SnapshotState() ([]byte, error) {
	inner, ok := g.inner.(core.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("guard: wrapped scheduler %s does not implement core.Snapshotter", g.inner.Name())
	}
	innerBlob, err := inner.SnapshotState()
	if err != nil {
		return nil, err
	}
	var e core.StateEncoder
	e.Tag("guard1")
	e.Int(int64(len(g.rows)))
	for i := range g.rows {
		s := &g.rows[i]
		e.Int(int64(s.rung))
		e.Int(int64(s.nominal))
		e.Int(int64(s.cleanStreak))
		e.Int(int64(s.alarms))
		e.Bool(s.escalated)
	}
	e.Bool(g.tripped)
	e.Float(g.tripAt)
	e.Floats(g.subLimits)
	e.Int(g.stats.Alarms)
	e.Int(g.stats.Demotions)
	e.Int(g.stats.Promotions)
	e.Int(g.stats.Escalations)
	e.Int(g.stats.BreakerTrips)
	e.Float(g.stats.TimeDegraded)
	e.Bytes(innerBlob)
	return e.Data(), nil
}

// RestoreState implements core.Snapshotter.
func (g *Guard) RestoreState(data []byte) error {
	inner, ok := g.inner.(core.Snapshotter)
	if !ok {
		return fmt.Errorf("guard: wrapped scheduler %s does not implement core.Snapshotter", g.inner.Name())
	}
	d := core.NewStateDecoder(data)
	d.ExpectTag("guard1")
	nrows := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if int(nrows) != len(g.rows) {
		return fmt.Errorf("guard: snapshot has %d rows, guard has %d", nrows, len(g.rows))
	}
	rows := make([]rowState, nrows)
	for i := range rows {
		rows[i] = rowState{
			rung:        int(d.Int()),
			nominal:     int(d.Int()),
			cleanStreak: int(d.Int()),
			alarms:      int(d.Int()),
			escalated:   d.Bool(),
		}
	}
	tripped := d.Bool()
	tripAt := d.Float()
	subLimits := d.Floats()
	var stats core.GuardStats
	stats.Alarms = d.Int()
	stats.Demotions = d.Int()
	stats.Promotions = d.Int()
	stats.Escalations = d.Int()
	stats.BreakerTrips = d.Int()
	stats.TimeDegraded = d.Float()
	innerBlob := d.Bytes()
	if err := d.Finish(); err != nil {
		return err
	}
	for i := range rows {
		if rows[i].rung < 0 || rows[i].rung >= len(g.ladder) {
			return fmt.Errorf("guard: snapshot rung %d for row %d outside ladder [0,%d)", rows[i].rung, i, len(g.ladder))
		}
	}
	if err := inner.RestoreState(innerBlob); err != nil {
		return err
	}
	copy(g.rows, rows)
	g.tripped = tripped
	g.tripAt = tripAt
	g.subLimits = subLimits
	g.stats = stats
	return nil
}

// FaultsInjected forwards a wrapped injector's count so the guard can sit
// above one in the scheduler stack.
func (g *Guard) FaultsInjected() int64 {
	if fc, ok := g.inner.(core.FaultCounter); ok {
		return fc.FaultsInjected()
	}
	return 0
}
