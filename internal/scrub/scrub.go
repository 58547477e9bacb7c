// Package scrub implements an online ECC patrol scrubber with a
// self-healing repair pipeline - the detect -> diagnose -> repair -> verify
// loop VRL-DRAM needs once its retention profile can go stale (VRT,
// temperature, aging; the ecosystem's AVATAR-style answer).
//
// The scrubber walks the bank's rows on a configurable sweep period,
// reading each row through the SECDED path and classifying it:
//
//   - clean: nothing to do (but a suspect row earns a clean-streak credit,
//     and after K consecutive clean patrols it is healed: promoted one rung
//     back toward its nominal schedule via core.Promoter);
//   - corrected: the weakest cell is sagging. The row is demoted
//     (core.Demoter, falling back to the one-shot core.Upgrader) and, on
//     its first offense, re-profiled with a targeted single-row campaign
//     (Config.Reprofile); a measured retention below the floor period
//     quarantines the row immediately;
//   - uncorrectable: the data is at risk. The row is quarantined: remapped
//     to a bounded spare-row pool (RemapTable) and retired from the store,
//     or - when the spares run out - escalated as a hard failure.
//
// Patrol reads contend with demand traffic: a busy bank defers the read
// with exponential backoff, and a deadline monitor books an SLO miss for
// every coverage window (tREFW by default) in which the patrol visited
// fewer rows than the configured fraction.
//
// The scrubber implements core.Snapshotter, so a checkpointed run that
// includes one resumes bit-identically (see internal/sim and
// internal/checkpoint).
package scrub

import (
	"fmt"
	"math"

	"vrldram/internal/core"
	"vrldram/internal/ecc"
	"vrldram/internal/retention"
)

// Config tunes the scrubber. The zero value of every field selects the
// documented default.
type Config struct {
	// SweepPeriod is the time one full patrol of the bank takes (default
	// 64 ms, one tREFW: every row is read once per refresh window).
	SweepPeriod float64
	// Window is the coverage-SLO accounting window (default 64 ms, tREFW).
	Window float64
	// MinCoverage is the fraction of the window's expected patrol visits
	// that must complete before the deadline monitor books an SLO miss
	// (default 0.9).
	MinCoverage float64
	// CleanPromote is K, the consecutive clean patrols a suspect row needs
	// before it is healed and promoted back (default 4).
	CleanPromote int
	// Spares is the spare-row budget for quarantine remapping (default 16;
	// negative means none - every quarantine escalates to a hard failure).
	Spares int
	// Floor is the fastest refresh period the system can offer a degraded
	// row (default the fastest RAIDR bin); a re-profiled retention below it
	// means no schedule can save the row and it is quarantined.
	Floor float64
	// BackoffBase/BackoffMax bound the exponential retry backoff a patrol
	// read applies when the bank is busy (defaults 1 us and 256 us).
	BackoffBase float64
	BackoffMax  float64

	// Sched, when set, is the repair target: it is probed for core.Demoter,
	// core.Upgrader, and core.Promoter, and the best available hook is used
	// (Demote preferred over the all-at-once Upgrade).
	Sched core.Scheduler
	// Reprofile, when set, runs a targeted retention measurement of one
	// suspect row (e.g. profiler.ProfileRow) and returns the measured
	// retention in seconds. It must be deterministic: it runs inside the
	// simulation loop and its outcome is covered by checkpoint/resume.
	Reprofile func(row int) (float64, error)
	// OnHardFail, when set, observes every row that needed a spare when
	// none was left - the escalation hook (alerting, host notification).
	OnHardFail func(row int)
}

func (c Config) withDefaults() Config {
	if c.SweepPeriod == 0 {
		c.SweepPeriod = 0.064
	}
	if c.Window == 0 {
		c.Window = 0.064
	}
	if c.MinCoverage == 0 {
		c.MinCoverage = 0.9
	}
	if c.CleanPromote == 0 {
		c.CleanPromote = 4
	}
	if c.Spares == 0 {
		c.Spares = 16
	} else if c.Spares < 0 {
		c.Spares = 0
	}
	if c.Floor == 0 {
		c.Floor = retention.SortedBins(retention.RAIDRBins)[0]
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 1e-6
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = 256e-6
	}
	return c
}

// Validate reports the first unusable field after defaulting.
func (c Config) Validate() error {
	// Each check is written so that NaN fails it, and a period must also be
	// finite: a NaN or infinite patrol spacing never advances the patrol.
	period := func(x float64) bool { return x > 0 && x <= math.MaxFloat64 }
	switch {
	case !period(c.SweepPeriod):
		return fmt.Errorf("scrub: sweep period %g must be positive and finite", c.SweepPeriod)
	case !period(c.Window):
		return fmt.Errorf("scrub: SLO window %g must be positive and finite", c.Window)
	case !(c.MinCoverage > 0 && c.MinCoverage <= 1):
		return fmt.Errorf("scrub: min coverage %g outside (0,1]", c.MinCoverage)
	case c.CleanPromote < 1:
		return fmt.Errorf("scrub: CleanPromote %d must be >= 1", c.CleanPromote)
	case !period(c.Floor):
		return fmt.Errorf("scrub: floor period %g must be positive and finite", c.Floor)
	case !period(c.BackoffBase) || !period(c.BackoffMax) || c.BackoffMax < c.BackoffBase:
		return fmt.Errorf("scrub: backoff bounds [%g,%g] invalid", c.BackoffBase, c.BackoffMax)
	}
	return nil
}

// rowHealth is the per-row diagnosis state.
type rowHealth struct {
	suspect     bool
	cleanStreak int
	measured    float64 // last targeted re-profile result (0 = never measured)
}

// Scrubber is the patrol engine. Construct with New; drive either online
// (Tick from a simulator's event loop) or offline (SweepOnce in a
// maintenance window).
type Scrubber struct {
	store RowStore
	cfg   Config
	rows  int

	demoter  core.Demoter
	upgrader core.Upgrader
	promoter core.Promoter

	interval float64 // per-row patrol spacing: SweepPeriod / rows
	cursor   int     // next row to patrol
	nextDue  float64 // time the next patrol read is due
	backoff  float64 // current busy-retry delay

	windowStart float64
	visited     int64 // patrol visits in the current SLO window

	health []rowHealth
	failed []bool // hard-failed rows: quarantine needed, no spare left
	remap  *RemapTable

	stats core.ScrubStats
}

// New builds a scrubber over the store.
func New(store RowStore, cfg Config) (*Scrubber, error) {
	if store == nil {
		return nil, fmt.Errorf("scrub: nil row store")
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rows := store.Rows()
	if rows <= 0 {
		return nil, fmt.Errorf("scrub: store has %d rows", rows)
	}
	s := &Scrubber{
		store:    store,
		cfg:      cfg,
		rows:     rows,
		interval: cfg.SweepPeriod / float64(rows),
		backoff:  cfg.BackoffBase,
		health:   make([]rowHealth, rows),
		failed:   make([]bool, rows),
		remap:    NewRemapTable(cfg.Spares),
	}
	s.nextDue = s.interval
	if cfg.Sched != nil {
		s.demoter, _ = cfg.Sched.(core.Demoter)
		s.upgrader, _ = cfg.Sched.(core.Upgrader)
		s.promoter, _ = cfg.Sched.(core.Promoter)
	}
	return s, nil
}

// Rows returns the number of rows under patrol.
func (s *Scrubber) Rows() int { return s.rows }

// NextDue returns the time the next patrol read wants the bank.
func (s *Scrubber) NextDue() float64 { return s.nextDue }

// Remapped returns the quarantined rows in increasing order.
func (s *Scrubber) Remapped() []int { return s.remap.Rows() }

// IsQuarantined reports whether the row is remapped to a spare or
// hard-failed (either way, the patrol no longer reads it).
func (s *Scrubber) IsQuarantined(row int) bool {
	if row < 0 || row >= s.rows {
		return false
	}
	return s.remap.IsRemapped(row) || s.failed[row]
}

// rollWindow closes every SLO window that has fully elapsed by now,
// booking a miss for each one whose patrol coverage fell short.
func (s *Scrubber) rollWindow(now float64) {
	expected := s.cfg.Window / s.interval // patrol visits a full window should see
	for now >= s.windowStart+s.cfg.Window {
		if float64(s.visited) < s.cfg.MinCoverage*expected {
			s.stats.SLOMisses++
		}
		s.visited = 0
		s.windowStart += s.cfg.Window
	}
}

// Tick is the online driver: the simulator calls it when NextDue() has
// arrived, passing the time the bank is busy until (a refresh or demand
// burst in flight). A busy bank defers the read with exponential backoff;
// an idle one patrols the cursor row. Returns whether a read happened.
func (s *Scrubber) Tick(now, busyUntil float64) (bool, error) {
	s.rollWindow(now)
	if busyUntil > now {
		// Demand traffic owns the bank: retry with backoff, doubling up to
		// the cap so a saturated bank is probed, not hammered.
		s.stats.BusyRetries++
		s.nextDue = now + s.backoff
		s.backoff *= 2
		if s.backoff > s.cfg.BackoffMax {
			s.backoff = s.cfg.BackoffMax
		}
		return false, nil
	}
	if err := s.visit(s.cursor, now); err != nil {
		return false, err
	}
	s.cursor = (s.cursor + 1) % s.rows
	s.backoff = s.cfg.BackoffBase
	s.nextDue = now + s.interval
	return true, nil
}

// SweepOnce patrols every row once at time now - the offline
// maintenance-window scrub. It shares visit with the online patrol, so the
// offline and online paths classify and repair identically.
func (s *Scrubber) SweepOnce(now float64) error {
	for r := 0; r < s.rows; r++ {
		if err := s.visit(r, now); err != nil {
			return err
		}
	}
	return nil
}

// visit patrols one row: read, classify, repair.
func (s *Scrubber) visit(row int, now float64) error {
	s.stats.RowsPatrolled++
	s.visited++
	if s.remap.IsRemapped(row) || s.failed[row] {
		// Quarantined: the data lives on a spare (or the row is abandoned);
		// the patrol spends the slot but has nothing to verify here.
		return nil
	}
	outcome, err := s.store.PatrolRead(row, now)
	if err != nil {
		return err
	}
	switch outcome {
	case ecc.OK:
		h := &s.health[row]
		if h.suspect {
			h.cleanStreak++
			if h.cleanStreak >= s.cfg.CleanPromote {
				// Verified: K consecutive clean patrols. Heal the row and
				// hand its slack back.
				h.suspect = false
				h.cleanStreak = 0
				s.stats.RowsHealed++
				if s.promoter != nil {
					s.promoter.Promote(row)
				}
			}
		}
		return nil
	case ecc.Corrected:
		return s.onCorrected(row)
	default: // ecc.Uncorrectable
		return s.onUncorrectable(row)
	}
}

// OnEccEvent feeds the repair pipeline an ECC classification observed
// outside the patrol - a refresh or demand sense that decoded corrected or
// uncorrectable. The response is identical to a patrol read's, so detection
// converges no matter which path sees the sag first.
func (s *Scrubber) OnEccEvent(row int, outcome ecc.DecodeResult) error {
	if row < 0 || row >= s.rows || s.remap.IsRemapped(row) || s.failed[row] {
		return nil
	}
	switch outcome {
	case ecc.Corrected:
		return s.onCorrected(row)
	case ecc.Uncorrectable:
		return s.onUncorrectable(row)
	}
	return nil
}

// NoteViolation marks a row suspect from out-of-band evidence (e.g. a
// sense violation recorded in an earlier window) without reading it - the
// offline diagnosis entry point.
func (s *Scrubber) NoteViolation(row int) {
	if row < 0 || row >= s.rows || s.remap.IsRemapped(row) || s.failed[row] {
		return
	}
	s.health[row].suspect = true
	s.health[row].cleanStreak = 0
}

// Suspects returns every row the pipeline currently distrusts - suspect,
// remapped, or hard-failed - in increasing order.
func (s *Scrubber) Suspects() []int {
	var out []int
	for r := 0; r < s.rows; r++ {
		if s.health[r].suspect || s.failed[r] || s.remap.IsRemapped(r) {
			out = append(out, r)
		}
	}
	return out
}

// onCorrected handles a single-bit (sagging cell) detection: demote, and on
// the first offense diagnose the row with a targeted re-profile.
func (s *Scrubber) onCorrected(row int) error {
	s.stats.Corrected++
	h := &s.health[row]
	h.cleanStreak = 0
	firstOffense := !h.suspect
	h.suspect = true
	if s.demoter != nil {
		s.demoter.Demote(row)
	} else if s.upgrader != nil {
		s.upgrader.Upgrade(row)
	}
	if firstOffense && s.cfg.Reprofile != nil {
		m, err := s.cfg.Reprofile(row)
		if err != nil {
			return fmt.Errorf("scrub: re-profiling row %d: %w", row, err)
		}
		s.stats.Reprofiles++
		h.measured = m
		if m < s.cfg.Floor {
			// No refresh schedule can carry this row any more: quarantine
			// before the sag becomes uncorrectable.
			return s.quarantine(row)
		}
	}
	return nil
}

// onUncorrectable handles a multi-bit detection: the data is at risk, so
// the row is quarantined immediately.
func (s *Scrubber) onUncorrectable(row int) error {
	s.stats.Uncorrectable++
	s.health[row].cleanStreak = 0
	s.health[row].suspect = true
	return s.quarantine(row)
}

// quarantine remaps the row to a spare, or escalates when the pool is dry.
func (s *Scrubber) quarantine(row int) error {
	if _, ok := s.remap.Remap(row); ok {
		s.stats.RowsRemapped++
		return s.store.Retire(row)
	}
	// Out of spares: hard failure. Pin the row to the fastest schedule as a
	// best effort and tell the escalation hook; the row stays in the store,
	// so its violations keep surfacing - this failure mode must be loud.
	s.failed[row] = true
	s.stats.HardFails++
	if s.upgrader != nil {
		s.upgrader.Upgrade(row)
	}
	if s.cfg.OnHardFail != nil {
		s.cfg.OnHardFail(row)
	}
	return nil
}

// ScrubSnapshot implements core.ScrubReporter: the counters so far, with
// every coverage window that has fully elapsed by now closed out. It does
// not disturb the live window state, so reporting cannot perturb a run.
func (s *Scrubber) ScrubSnapshot(now float64) core.ScrubStats {
	st := s.stats
	expected := s.cfg.Window / s.interval
	ws, visited := s.windowStart, s.visited
	for now >= ws+s.cfg.Window {
		if float64(visited) < s.cfg.MinCoverage*expected {
			st.SLOMisses++
		}
		visited = 0
		ws += s.cfg.Window
	}
	st.SparesLeft = s.remap.SparesLeft()
	return st
}
