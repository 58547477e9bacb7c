package core

import (
	"fmt"
	"math"

	"vrldram/internal/dram"
	"vrldram/internal/retention"
)

// Op is one refresh operation the memory controller issues to a row.
type Op struct {
	Full   bool // full (long tRFC) or partial (short tRFC) refresh
	Cycles int  // bank-busy latency in DRAM cycles
	Alpha  float64
}

// Scheduler is a refresh command scheduling policy. The simulator calls
// RefreshOp at each row's scheduled refresh instant and OnAccess whenever a
// read or write activates a row.
type Scheduler interface {
	// Name is the policy's display name ("RAIDR", "VRL", ...).
	Name() string
	// Period returns the refresh period of a row (seconds).
	Period(row int) float64
	// RefreshOp returns the operation to issue to the row now, updating any
	// internal counters.
	RefreshOp(row int, now float64) Op
	// OnAccess notifies the policy of a read/write activation of the row.
	OnAccess(row int, now float64)
	// MPRSF returns the row's configured MPRSF (0 for policies without
	// partial refreshes).
	MPRSF(row int) int
}

// SteadyScheduler is an optional Scheduler capability the fast-forward
// engine keys on: StablePeriodUntil returns a time up to which the row's
// refresh period - and the per-row op sequence it drives - cannot change
// except through the simulator's own visible hooks (OnAccess from a trace
// record, Upgrade/Demote from an ECC or scrub response), all of which the
// runner already fences fast-forward windows against. row < 0 asks for a
// bound that holds for every row at once. A policy whose state can shift
// spontaneously (a guard ladder re-evaluating on any sense) must return now;
// the stock policies' schedules are fixed at construction, so they return
// +Inf and let the runner's horizon caps do the fencing.
type SteadyScheduler interface {
	StablePeriodUntil(row int, now float64) float64
}

// StreamView exposes a row-independent scheduler's live decision state as
// plain columns, so the fast-forward kernel can select each refresh op
// inline instead of paying an interface call per event. The slices alias the
// scheduler's own state: mutations between fast-forward windows (a
// scrub-driven Upgrade, an OnAccess reset) are visible in the next window
// without re-fetching, and rcount writes by the kernel are the scheduler's
// own counter updates.
type StreamView struct {
	Period  int64   // shared period in dram ticks when Periods is nil (JEDEC)
	Periods []int64 // per-row refresh periods in dram ticks, aliased live state
	RCount  []int   // per-row partial-refresh counters; nil = always Full
	MPRSF   []int   // per-row MPRSF, aliased live state (nil with RCount nil)
	Full    Op      // the op issued when rcount == mprsf (or always, if RCount is nil)
	Partial Op      // the op issued otherwise
}

// OpStreamer is the optional capability behind StreamView. Only policies
// whose RefreshOp is exactly "rcount==mprsf ? full : partial" per row (or
// unconditionally full) can offer it; anything richer must stay off the
// fast-forward path.
type OpStreamer interface {
	StreamView() StreamView
}

// Config collects the knobs shared by the scheduler constructors.
type Config struct {
	Bins      []float64            // refresh-period bins (default retention.RAIDRBins)
	Restore   RestoreModel         // latencies + restore coefficients
	Decay     retention.DecayModel // leakage law for MPRSF computation
	Guardband float64              // minimum scheduled sensing charge (default ChargeGuardband)
	NBits     int                  // rcount/mprsf counter width (default 2)
}

func (c Config) withDefaults() Config {
	if c.Bins == nil {
		c.Bins = retention.RAIDRBins
	}
	if c.Decay == nil {
		c.Decay = retention.ExpDecay{}
	}
	if c.Guardband == 0 {
		c.Guardband = ChargeGuardband
	}
	if c.NBits == 0 {
		c.NBits = 2
	}
	return c
}

// Validate reports the first unusable field after defaulting.
func (c Config) Validate() error {
	if err := c.Restore.Validate(); err != nil {
		return err
	}
	if !(c.Guardband >= retention.SenseLimit && c.Guardband < 1) { // rejects NaN too
		return fmt.Errorf("core: guardband %g outside [%g,1)", c.Guardband, retention.SenseLimit)
	}
	if c.NBits < 1 || c.NBits > 16 {
		return fmt.Errorf("core: nbits %d outside [1,16]", c.NBits)
	}
	return nil
}

// MaxPartials returns the counter range 2^nbits - 1.
func (c Config) MaxPartials() int { return 1<<uint(c.NBits) - 1 }

// --- JEDEC baseline -----------------------------------------------------------

// jedec refreshes every row fully at the nominal 64 ms period, ignoring
// retention profiles: the behaviour of a stock controller.
type jedec struct {
	period float64
	rm     RestoreModel
}

// NewJEDEC returns the stock full-refresh-every-64ms policy.
func NewJEDEC(nominalPeriod float64, rm RestoreModel) (Scheduler, error) {
	if err := rm.Validate(); err != nil {
		return nil, err
	}
	if nominalPeriod <= 0 {
		return nil, fmt.Errorf("core: nominal period must be positive, got %g", nominalPeriod)
	}
	return &jedec{period: nominalPeriod, rm: rm}, nil
}

// SnapshotState implements Snapshotter; JEDEC has no mutable state, so the
// blob is the policy tag alone.
func (s *jedec) SnapshotState() ([]byte, error) {
	var e StateEncoder
	e.Tag("jedec1")
	return e.Data(), nil
}

// RestoreState implements Snapshotter.
func (s *jedec) RestoreState(data []byte) error {
	d := NewStateDecoder(data)
	d.ExpectTag("jedec1")
	return d.Finish()
}

func (s *jedec) Name() string          { return "JEDEC" }
func (s *jedec) Period(int) float64    { return s.period }
func (s *jedec) OnAccess(int, float64) {}
func (s *jedec) MPRSF(int) int         { return 0 }
func (s *jedec) RefreshOp(int, float64) Op {
	return Op{Full: true, Cycles: s.rm.FullCycles, Alpha: s.rm.AlphaFull}
}

// StablePeriodUntil implements SteadyScheduler: the JEDEC schedule is fixed
// at construction.
func (s *jedec) StablePeriodUntil(int, float64) float64 { return math.Inf(1) }

// StreamView implements OpStreamer: one shared period, always full.
func (s *jedec) StreamView() StreamView {
	return StreamView{
		Period: dram.Ticks(s.period),
		Full:   Op{Full: true, Cycles: s.rm.FullCycles, Alpha: s.rm.AlphaFull},
	}
}

// --- RAIDR ---------------------------------------------------------------------

// raidr refreshes each row fully at its binned period (Liu et al., ISCA
// 2012): the paper's baseline.
type raidr struct {
	periods []float64
	ticks   []int64 // periods in dram ticks, built by the first StreamView
	rm      RestoreModel
}

// NewRAIDR builds the retention-binned full-refresh policy over a profile.
func NewRAIDR(profile *retention.BankProfile, cfg Config) (Scheduler, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	periods, err := profile.Periods(cfg.Bins)
	if err != nil {
		return nil, err
	}
	return &raidr{periods: periods, rm: cfg.Restore}, nil
}

// SnapshotState implements Snapshotter. RAIDR's binned periods are fixed at
// construction, so only the row count is recorded (to verify shape at
// restore time).
func (s *raidr) SnapshotState() ([]byte, error) {
	var e StateEncoder
	e.Tag("raidr1")
	e.Int(int64(len(s.periods)))
	return e.Data(), nil
}

// RestoreState implements Snapshotter.
func (s *raidr) RestoreState(data []byte) error {
	d := NewStateDecoder(data)
	d.ExpectTag("raidr1")
	rows := d.Int()
	if err := d.Finish(); err != nil {
		return err
	}
	if int(rows) != len(s.periods) {
		return fmt.Errorf("core: RAIDR snapshot has %d rows, scheduler has %d", rows, len(s.periods))
	}
	return nil
}

func (s *raidr) Name() string           { return "RAIDR" }
func (s *raidr) Period(row int) float64 { return s.periods[row] }
func (s *raidr) OnAccess(int, float64)  {}
func (s *raidr) MPRSF(int) int          { return 0 }
func (s *raidr) RefreshOp(int, float64) Op {
	return Op{Full: true, Cycles: s.rm.FullCycles, Alpha: s.rm.AlphaFull}
}

// StablePeriodUntil implements SteadyScheduler: the binned periods are fixed
// at construction.
func (s *raidr) StablePeriodUntil(int, float64) float64 { return math.Inf(1) }

// StreamView implements OpStreamer: per-row periods, always full.
func (s *raidr) StreamView() StreamView {
	if s.ticks == nil {
		s.ticks = periodTicks(s.periods)
	}
	return StreamView{
		Periods: s.ticks,
		Full:    Op{Full: true, Cycles: s.rm.FullCycles, Alpha: s.rm.AlphaFull},
	}
}

// --- VRL (Algorithm 1) -----------------------------------------------------------

// vrl implements the paper's Algorithm 1: per-row mprsf and rcount
// counters; a full refresh is issued when rcount == mprsf (resetting
// rcount), otherwise a partial refresh (incrementing rcount).
type vrl struct {
	name          string
	periods       []float64
	ticks         []int64 // periods in dram ticks, built by the first StreamView and kept in sync after
	bins          []float64
	mprsf         []int
	rcount        []int
	rm            RestoreModel
	resetOnAccess bool
}

// NewVRL builds the VRL policy: RAIDR's binning plus MPRSF-scheduled partial
// refreshes.
func NewVRL(profile *retention.BankProfile, cfg Config) (Scheduler, error) {
	return newVRL(profile, cfg, false)
}

// NewVRLAccess builds the VRL-Access policy: VRL plus rcount resets on row
// activations, since an activation fully restores the row's charge.
func NewVRLAccess(profile *retention.BankProfile, cfg Config) (Scheduler, error) {
	return newVRL(profile, cfg, true)
}

func newVRL(profile *retention.BankProfile, cfg Config, resetOnAccess bool) (Scheduler, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	periods, err := profile.Periods(cfg.Bins)
	if err != nil {
		return nil, err
	}
	rows := profile.Geom.Rows
	s := &vrl{
		name:          "VRL",
		periods:       periods,
		bins:          retention.SortedBins(cfg.Bins),
		mprsf:         make([]int, rows),
		rcount:        make([]int, rows),
		rm:            cfg.Restore,
		resetOnAccess: resetOnAccess,
	}
	if resetOnAccess {
		s.name = "VRL-Access"
	}
	maxP := cfg.MaxPartials()
	table := MPRSFTableFor(cfg.Restore, cfg.Guardband, maxP)
	for r := 0; r < rows; r++ {
		s.mprsf[r] = table.MPRSF(profile.Profiled[r], periods[r], cfg.Decay)
		// Start each counter at a steady-state phase: a controller that has
		// been running arbitrarily long has its rows uniformly spread over
		// their full/partial cycle, and a finite simulation window should
		// see that distribution rather than an all-counters-zero transient.
		s.rcount[r] = int(uint32(r)*2654435761%uint32(s.mprsf[r]+1)) % (s.mprsf[r] + 1)
	}
	return s, nil
}

// SnapshotState implements Snapshotter: the per-row periods and MPRSF
// values (both mutable through Upgrade) and the partial-refresh counters.
func (s *vrl) SnapshotState() ([]byte, error) {
	var e StateEncoder
	e.Tag("vrl1")
	e.Bool(s.resetOnAccess)
	e.Floats(s.periods)
	e.Ints(s.mprsf)
	e.Ints(s.rcount)
	return e.Data(), nil
}

// RestoreState implements Snapshotter.
func (s *vrl) RestoreState(data []byte) error {
	d := NewStateDecoder(data)
	d.ExpectTag("vrl1")
	resetOnAccess := d.Bool()
	periods := d.Floats()
	mprsf := d.Ints()
	rcount := d.Ints()
	if err := d.Finish(); err != nil {
		return err
	}
	if resetOnAccess != s.resetOnAccess {
		return fmt.Errorf("core: VRL snapshot is for %s, scheduler is %s", vrlVariant(resetOnAccess), vrlVariant(s.resetOnAccess))
	}
	rows := len(s.periods)
	if len(periods) != rows || len(mprsf) != rows || len(rcount) != rows {
		return fmt.Errorf("core: VRL snapshot has %d/%d/%d rows, scheduler has %d",
			len(periods), len(mprsf), len(rcount), rows)
	}
	for r := 0; r < rows; r++ {
		if periods[r] <= 0 {
			return fmt.Errorf("core: VRL snapshot period for row %d is %g", r, periods[r])
		}
		if mprsf[r] < 0 || rcount[r] < 0 || rcount[r] > mprsf[r] {
			return fmt.Errorf("core: VRL snapshot counters for row %d invalid (rcount %d, mprsf %d)", r, rcount[r], mprsf[r])
		}
	}
	copy(s.periods, periods)
	if s.ticks != nil {
		copy(s.ticks, periodTicks(periods))
	}
	copy(s.mprsf, mprsf)
	copy(s.rcount, rcount)
	return nil
}

func vrlVariant(resetOnAccess bool) string {
	if resetOnAccess {
		return "VRL-Access"
	}
	return "VRL"
}

func (s *vrl) Name() string           { return s.name }
func (s *vrl) Period(row int) float64 { return s.periods[row] }
func (s *vrl) MPRSF(row int) int      { return s.mprsf[row] }

// RefreshOp implements the paper's Algorithm 1.
func (s *vrl) RefreshOp(row int, _ float64) Op {
	if s.rcount[row] == s.mprsf[row] {
		s.rcount[row] = 0
		return Op{Full: true, Cycles: s.rm.FullCycles, Alpha: s.rm.AlphaFull}
	}
	s.rcount[row]++
	return Op{Full: false, Cycles: s.rm.PartialCycles, Alpha: s.rm.AlphaPartial}
}

// StablePeriodUntil implements SteadyScheduler. VRL's periods and MPRSF
// mutate only through Upgrade (ECC- or scrub-driven) and its counters only
// through RefreshOp itself and OnAccess - all paths the fast-forward runner
// fences windows against - so the schedule is stable indefinitely between
// those hooks. This holds for VRL-Access too: its extra state change rides
// on OnAccess, which only fires at trace records, and every fast-forward
// horizon stops at the next trace record.
func (s *vrl) StablePeriodUntil(int, float64) float64 { return math.Inf(1) }

// StreamView implements OpStreamer: Algorithm 1 as columns.
func (s *vrl) StreamView() StreamView {
	if s.ticks == nil {
		s.ticks = periodTicks(s.periods)
	}
	return StreamView{
		Periods: s.ticks,
		RCount:  s.rcount,
		MPRSF:   s.mprsf,
		Full:    Op{Full: true, Cycles: s.rm.FullCycles, Alpha: s.rm.AlphaFull},
		Partial: Op{Full: false, Cycles: s.rm.PartialCycles, Alpha: s.rm.AlphaPartial},
	}
}

// OnAccess resets the partial-refresh counter when the policy is VRL-Access:
// the activation just restored the row to full charge.
func (s *vrl) OnAccess(row int, _ float64) {
	if s.resetOnAccess {
		s.rcount[row] = 0
	}
}

// periodTicks converts a period column to dram ticks. Binned columns hold
// a handful of distinct values, so each conversion is reused while the
// value repeats.
func periodTicks(periods []float64) []int64 {
	out := make([]int64, len(periods))
	last, lastT := 0.0, int64(0)
	for r, p := range periods {
		if r == 0 || p != last {
			last, lastT = p, dram.Ticks(p)
		}
		out[r] = lastT
	}
	return out
}

// Upgrader is the optional capability AVATAR-style online mitigation needs:
// demote a misbehaving row to the fastest refresh bin with no partial
// refreshes, effective from its next scheduled refresh.
type Upgrader interface {
	Upgrade(row int)
}

// Upgrade implements Upgrader: the row drops to the smallest configured bin
// and loses its partial refreshes.
func (s *vrl) Upgrade(row int) {
	if row < 0 || row >= len(s.periods) {
		return
	}
	min := s.periods[row]
	for _, p := range s.bins {
		if p < min {
			min = p
		}
	}
	s.periods[row] = min
	if s.ticks != nil {
		s.ticks[row] = dram.Ticks(min)
	}
	s.mprsf[row] = 0
	s.rcount[row] = 0
}

// MPRSFHistogram summarizes a VRL scheduler's per-row MPRSF assignment:
// index i counts rows with MPRSF == i.
func MPRSFHistogram(s Scheduler, rows int) []int {
	max := 0
	for r := 0; r < rows; r++ {
		if m := s.MPRSF(r); m > max {
			max = m
		}
	}
	h := make([]int, max+1)
	for r := 0; r < rows; r++ {
		h[s.MPRSF(r)]++
	}
	return h
}

// UpgradeRows returns a copy of the profile with the given rows' profiled
// retention pinned to the given refresh bin: the AVATAR-style mitigation for
// rows caught misbehaving at runtime (variable retention time). Upgraded
// rows land in the fastest bin and receive MPRSF 0 from any subsequent
// scheduler construction.
func UpgradeRows(profile *retention.BankProfile, rows []int, bin float64) *retention.BankProfile {
	out := &retention.BankProfile{
		Geom:     profile.Geom,
		True:     profile.True,
		Profiled: append([]float64(nil), profile.Profiled...),
	}
	for _, r := range rows {
		if r >= 0 && r < len(out.Profiled) {
			out.Profiled[r] = bin
		}
	}
	return out
}
