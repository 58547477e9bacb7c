// Package scenario composes the repo's individually modelled retention
// stressors - temperature swings, variable retention time, data-pattern
// dependence, aging - into named, versioned, deterministic composite-stress
// scenarios, the "retention reality" Mutlu's retrospective (arXiv
// 2306.16037) says breaks static profiling in the field.
//
// A scenario is a schedule of Stressors: piecewise-constant multiplicative
// modulations of per-row retention, each drawn from its own splitmix64
// stream (the same isolation discipline as internal/fleet's device
// derivation, so one stressor's draws never perturb another's). The Env
// combinator integrates charge decay across the union of all stressors'
// change-points, which is the mathematically honest composition: two
// simultaneous scales multiply INSIDE each constant segment, where the
// decay law integrates them exactly, instead of multiplying two separately
// integrated decay factors (wrong for exponential decay, whose effective
// rate under scales s1 and s2 is 1/(tret*s1*s2)).
//
// Env implements the same DecayFactor contract as retention.VRT, so
// dram.Bank can consume it through the Modulator hook, and it implements
// core.Snapshotter with an identity blob, so scenario-driven runs keep
// PR 2's bit-identical kill/resume guarantee: stressors are pure functions
// of (seed, row, time), which makes "restore" a validation problem, not a
// state-transfer problem.
package scenario

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"vrldram/internal/core"
	"vrldram/internal/retention"
)

// Stressor is one piecewise-constant retention modulation: ScaleAt returns
// the multiplicative retention factor of the row at time t, and NextChange
// returns the first instant strictly after t at which that factor may
// change (+Inf when it is constant from t on). Implementations must be pure
// functions of their configuration - no mutable state - so that composition
// and resume are trivially deterministic.
type Stressor interface {
	// Name identifies the stressor in catalogs and snapshot blobs.
	Name() string
	// ScaleAt returns the retention multiplier for the row at time t.
	// tret is the row's unmodulated effective retention, for stressors
	// (like VRT) that exempt already-defect-limited rows.
	ScaleAt(row int, tret, t float64) float64
	// NextChange returns the first time strictly greater than t at which
	// ScaleAt may return a different value, or +Inf if never.
	NextChange(row int, tret, t float64) float64
}

// RowInvariant is an optional Stressor capability: RowInvariant reports
// whether this stressor instance ignores its row and tret arguments
// entirely (a device-wide modulation such as a thermal cycle or an aging
// ramp). An Env compiles such a stressor's scales into its change-point
// grid, once, and every later decay call reads them from there.
type RowInvariant interface {
	Stressor
	RowInvariant() bool
}

// ScaleFloor is an optional Stressor capability: MinScale returns a
// retention scale no larger than any value ScaleAt can return, for every
// row and every t, the run window's outside included. An Env whose roster
// holds a stressor without it reports no floor, and the bank's sense bound
// then evaluates every read exactly.
type ScaleFloor interface {
	Stressor
	MinScale() float64
}

// segmenter is an optional Stressor capability: segment returns exactly
// (ScaleAt(row, tret, t), NextChange(row, tret, t)), bit for bit, from one
// evaluation, so the decay walk pays one stressor evaluation per segment
// instead of two.
type segmenter interface {
	segment(row int, tret, t float64) (scale, next float64)
}

// segmentOf evaluates one stressor at t: through its segmenter capability
// when it has one, through ScaleAt and NextChange otherwise.
func segmentOf(s Stressor, row int, tret, t float64) (scale, next float64) {
	if sg, ok := s.(segmenter); ok {
		return sg.segment(row, tret, t)
	}
	return s.ScaleAt(row, tret, t), s.NextChange(row, tret, t)
}

// Env is a scenario instance bound to a seed and a run window: the stressor
// composition the bank decays under. It satisfies dram's Modulator hook and
// core.Snapshotter.
type Env struct {
	Ref      Ref     // catalog identity (name + version)
	Seed     int64   // scenario master seed (streams derive from it)
	Duration float64 // the run window the schedule was built for (s)
	// Stressors is the composition, multiplied in this order. It must not
	// change after the first DecayFactor call, which compiles the time-only
	// part of the schedule.
	Stressors []Stressor

	compileOnce sync.Once
	compiled    grid    // see compiledSchedule
	floor       float64 // see MinScale
}

// ScaleAt returns the product of all stressors' retention multipliers for
// the row at time t.
func (e *Env) ScaleAt(row int, tret, t float64) float64 {
	scale := 1.0
	for _, s := range e.Stressors {
		scale *= s.ScaleAt(row, tret, t)
	}
	return scale
}

// DecayFactor integrates the decay of a row with base retention tret over
// [t0, t1] under the composed stress schedule: the interval is segmented at
// the union of every stressor's change-points, and within each segment the
// decay law sees the retention scaled by the product of the active
// multipliers. The segments accumulate through one retention.DecayWalk, as
// in retention.VRT.DecayFactor: for the exponential law their exponents add
// and the walk pays one Exp2 instead of one per segment; for other laws the
// per-segment factors multiply, exact at segment boundaries.
// With no stressors it reduces to base.Factor(t1-t0, tret) exactly.
//
// The time-only side of the schedule is read from the grid compiled on the
// first call (see compiledSchedule) wherever a cell is trusted; at any
// other time, the run window's outside included, every stressor is
// evaluated directly. Either way the result equals decayFactorRef bit for
// bit.
func (e *Env) DecayFactor(row int, tret, t0, t1 float64, base retention.DecayModel) float64 {
	return e.decayFactorWith(e.compiledSchedule(), row, tret, t0, t1, base)
}

// decayFactorRef is the reference integration: a direct walk of every
// stressor's schedule with no compiled timelines. It is not on any
// production path; the scenario tests and fuzz target check that
// DecayFactor agrees with it bit for bit.
func (e *Env) decayFactorRef(row int, tret, t0, t1 float64, base retention.DecayModel) float64 {
	if t1 <= t0 {
		return 1
	}
	walk := retention.NewDecayWalk(base)
	t := t0
	for t < t1 {
		scale := 1.0
		next := t1
		for _, s := range e.Stressors {
			scale *= s.ScaleAt(row, tret, t)
			if n := s.NextChange(row, tret, t); n < next {
				next = n
			}
		}
		if next <= t {
			// Stressors guarantee strict progress; this terminates the loop
			// anyway if one misbehaves, at the cost of treating the rest of
			// the interval as one segment.
			next = t1
		}
		if next > t1 {
			next = t1
		}
		walk.Add(next-t, tret*scale)
		t = next
	}
	return walk.Factor()
}

// MinScale implements the dram.FlooredModulator capability: the product of
// the roster's floors, taken once with the compiled schedule and in the
// walk's multiplication order, so it is at most every product of scales a
// walk forms. 0 when a stressor has no positive, finite floor; 1 with no
// stressors.
func (e *Env) MinScale() float64 {
	e.compile()
	return e.floor
}

// rosterFloor is MinScale's product over the roster.
func rosterFloor(roster []Stressor) float64 {
	floor := 1.0
	for _, s := range roster {
		f, ok := s.(ScaleFloor)
		if !ok {
			return 0
		}
		m := f.MinScale()
		if !(m > 0 && m < math.Inf(1)) {
			return 0
		}
		floor *= m
	}
	return floor
}

// nominalReporter is the per-stressor side of Env.NominalUntil: the end of
// the window starting at from over which the stressor is exactly the
// identity - scale 1 for every row AND no change-point. The change-point
// condition matters even when the scale stays 1, because DecayFactor splits
// its walk at every NextChange boundary, and a split walk is not bitwise the
// unsplit factor. A return <= from means "not nominal at from".
type nominalReporter interface {
	NominalUntil(from float64) float64
}

// NominalUntil implements the dram.SteadyModulator capability: the end of
// the window starting at from over which this Env's DecayFactor is bitwise
// base.Factor(t1-t0, tret) for every row and every [t0, t1] inside the
// window. That holds exactly when every stressor is nominal across the
// window (all scales 1, so the single-segment walk computes
// 1 * base.Factor(t1-t0, tret*1)) and no stressor change-point splits the
// segment walk. Any stressor that cannot report a nominal window vetoes the
// whole Env; an Env with no stressors is nominal forever.
func (e *Env) NominalUntil(from float64) float64 {
	until := math.Inf(1)
	for _, s := range e.Stressors {
		nr, ok := s.(nominalReporter)
		if !ok {
			return from
		}
		u := nr.NominalUntil(from)
		if u <= from {
			return from
		}
		if u < until {
			until = u
		}
	}
	return until
}

// partKind is how a walk reads one roster position from a trusted cell.
type partKind uint8

const (
	partCell  partKind = iota // row-invariant: the cell holds its scale
	partGate                  // gate over a row-dependent stressor: the cell holds the episode
	partFrame                 // pattern adversary: the cell holds the frame's hash key
	partRow                   // row-dependent throughout: evaluated in every segment
)

// part is one roster position s of a grid. eval is what a segment evaluates
// for the row: a gate's inner stressor, or s itself. When eval is one of
// the roster's first maxBound telegraphs, vrt is its process, and a walk
// binds its row into bound[slot] (retention.VRT.Row) once.
type part struct {
	kind      partKind
	telegraph bool // eval is a bound telegraph
	slot      uint8
	s, eval   Stressor
	vrt       retention.VRT
	hotFrac   float64    // partFrame: the adversary's hot fraction ...
	hotScale  [2]float64 // ... and the retention scale of a cold and a hot row
}

// partOf classifies one roster entry.
func partOf(s Stressor) part {
	p := part{kind: partRow, s: s, eval: s}
	if inv, ok := s.(RowInvariant); ok && inv.RowInvariant() {
		p.kind = partCell
	} else if g, ok := s.(Gate); ok {
		p.kind, p.eval = partGate, g.Inner
	} else if a, ok := s.(PatternAdversary); ok {
		p.kind, p.hotFrac, p.hotScale = partFrame, a.HotFrac, [2]float64{1, retention.PatternFactor(a.Pattern)}
	}
	if v, ok := p.eval.(VRTStressor); ok {
		p.telegraph, p.vrt = true, v.V
	}
	return p
}

// at evaluates the part's time-only side directly at t: the cell value (a
// scale's bits, a gate's episode index shifted left over its activity, or a
// frame's hash key) and the first change-point after t, +Inf for a partRow.
func (p *part) at(t float64) (val uint64, next float64) {
	switch p.kind {
	case partCell:
		return math.Float64bits(p.s.ScaleAt(0, 1, t)), p.s.NextChange(0, 1, t)
	case partGate:
		g := p.s.(Gate)
		k := frameOf(t, g.Period)
		if val = uint64(k) << 1; g.active(k) {
			val |= 1
		}
		return val, frameNext(t, g.Period)
	case partFrame:
		a := p.s.(PatternAdversary)
		return a.frameKey(frameOf(t, a.FramePeriod)), frameNext(t, a.FramePeriod)
	}
	return 0, math.Inf(1)
}

// cell is the span from one time-only change-point of the roster to the
// next. A stressor is piecewise constant only up to rounding: its ScaleAt
// and NextChange compute the change-point separately, so within a few ulps
// of a cell's end they can disagree with the values taken at start (the
// catalog's thermal cycle already reads the next tread one ulp before the
// boundary its NextChange reports). So a cell is used only on
// [start, until], which stops edgeGuard of the run window short of end and
// never passes Duration; anywhere else the stressors are evaluated
// directly, as the reference does.
type cell struct {
	start, end float64
	until      float64          // until == start: trusted at start only
	vals       [maxParts]uint64 // each part's value (see part.at)
}

// grid is an Env's compiled schedule: one merged change-point grid over
// [0, Duration] - thermal treads, aging steps, gate episode boundaries and
// adversary frames - whose cells hold what the time-only parts give there.
// A grid without cells is unusable.
type grid struct {
	parts   []part // a prefix of partBuf, so a build allocates only its cells
	partBuf [maxParts]part
	cells   []cell
	perCell float64 // cells per second of the run window
}

// A roster with more than maxParts stressors, or finer change-points than
// maxCells cells over the run window, gets no grid and is evaluated
// directly. A walk binds at most maxBound telegraph rows; the rest are
// evaluated unbound. edgeGuard is the margin, as a fraction of the run
// window, that a cell's trusted span keeps from its end: orders of
// magnitude wider than the rounding disagreement it guards against, and
// narrow enough that a query almost never lands in it.
const (
	maxParts  = 8
	maxCells  = 4096
	maxBound  = 2
	edgeGuard = 1e-9
)

// compiledSchedule returns the Env's grid, building it on the first call;
// nil means every segment is evaluated directly. The build is lazy because
// callers may append stressors between BuildEnv and the run.
func (e *Env) compiledSchedule() *grid {
	e.compile()
	if e.compiled.cells == nil {
		return nil
	}
	return &e.compiled
}

// compile builds the grid and the roster's floor, once.
func (e *Env) compile() {
	e.compileOnce.Do(func() {
		e.compiled.build(e.Stressors, e.Duration)
		e.floor = rosterFloor(e.Stressors)
	})
}

// build walks the roster's time-only change-points across [0, duration],
// leaving the grid unusable for a roster past maxParts, a stalled
// change-point, or more than maxCells cells. Each cell's trusted span ends
// at until, where every part is checked against its direct evaluation; a
// cell that fails, or is shorter than the guard, is trusted at its start
// only. The catalog stressors locate their change-points with floors of
// functions that increase with t, so agreement at start (by construction)
// and at until means agreement across the span.
func (g *grid) build(roster []Stressor, duration float64) {
	if len(roster) > maxParts {
		return
	}
	g.parts = g.partBuf[:len(roster)]
	slots := uint8(0)
	for j, s := range roster {
		p := &g.parts[j]
		if *p = partOf(s); p.telegraph && slots < maxBound {
			p.slot, slots = slots, slots+1
		} else {
			p.telegraph = false
		}
	}
	cells := make([]cell, 0, 64) // the catalog's rosters need at most 45
	var nexts [maxParts]float64
	for t := 0.0; t <= duration; {
		if len(cells) == maxCells {
			return
		}
		c := cell{start: t, end: math.Inf(1)}
		for j := range g.parts {
			v, n := g.parts[j].at(t)
			if !(n > t) {
				return
			}
			c.vals[j], nexts[j], c.end = v, n, math.Min(c.end, n)
		}
		c.until = math.Min(c.end-edgeGuard*duration, duration)
		for j := range g.parts {
			if v, n := g.parts[j].at(c.until); c.until < c.start || v != c.vals[j] || n != nexts[j] {
				c.until = c.start
				break
			}
		}
		cells, t = append(cells, c), c.end
	}
	if len(cells) > 0 {
		g.cells, g.perCell = cells, float64(len(cells))/duration
	}
}

// locate returns a lower bound of the index of the cell holding t: a guess
// from the mean cell length, stepped back past every cell ending after t.
func (g *grid) locate(t float64) int {
	i, x := 0, t*g.perCell
	if x >= float64(len(g.cells)) {
		i = len(g.cells) - 1
	} else if x > 0 {
		i = int(x)
	}
	for i > 0 && g.cells[i-1].end > t {
		i--
	}
	return i
}

// decayFactorWith is decayFactorRef evaluated through the grid, with the
// same segment walk, multiplication order and guards. Inside a trusted cell
// the time-only parts' values are what their ScaleAt and NextChange return
// there (the checks in build), and their earliest change-point is the
// cell's end; elsewhere every stressor is evaluated directly, through its
// segmenter where it has one. Both walks accumulate through
// retention.DecayWalk, so the two paths agree bit for bit.
//
// t only increases along the walk, so the cell is located once, at t0, and
// then followed by a cursor. The walk's row and tret never change, so the
// adversaries' row key is taken once and each telegraph's row hashes at
// most once, when the walk first evaluates it.
func (e *Env) decayFactorWith(g *grid, row int, tret, t0, t1 float64, base retention.DecayModel) float64 {
	if t1 <= t0 {
		return 1
	}
	var bound [maxBound]retention.VRTRow
	var bindings uint8 // bit k: bound[k] holds the walk's row
	// Bit j of live is set while part j can move the walk.
	i, live, key := 0, uint(0), rowKey(row)
	if g != nil {
		i, live = g.locate(t0), 1<<len(g.parts)-1
	}
	walk := retention.NewDecayWalk(base)
	for t := t0; t < t1; {
		scale, next := 1.0, t1
		if c := g.trusted(&i, t); c != nil {
			if c.end < next {
				next = c.end
			}
			for m := live; m != 0; m &= m - 1 {
				j := bits.TrailingZeros(m)
				p := &g.parts[j]
				switch p.kind {
				case partCell:
					scale *= math.Float64frombits(c.vals[j])
					continue
				case partFrame:
					// An index, not a branch: the hot test is a coin flip.
					hot := 0
					if unitOf(splitmix64(key^c.vals[j])) < p.hotFrac {
						hot = 1
					}
					scale *= p.hotScale[hot]
					continue
				case partGate:
					if c.vals[j]&1 == 0 {
						continue
					}
				}
				var s, n float64
				if p.telegraph {
					if bindings&(1<<p.slot) == 0 {
						bound[p.slot], bindings = p.vrt.Row(row, tret), bindings|1<<p.slot
						if !bound[p.slot].Affected() {
							// An unaffected row is scale 1 with no change-point.
							live &^= 1 << j
							continue
						}
					}
					s, n = bound[p.slot].Segment(t)
				} else {
					s, n = segmentOf(p.eval, row, tret, t)
				}
				scale *= s
				if n < next {
					next = n
				}
			}
		} else {
			for _, s := range e.Stressors {
				sc, n := segmentOf(s, row, tret, t)
				scale *= sc
				if n < next {
					next = n
				}
			}
		}
		if next <= t {
			next = t1
		}
		if next > t1 {
			next = t1
		}
		walk.Add(next-t, tret*scale)
		t = next
	}
	return walk.Factor()
}

// trusted steps the cursor *i forward to the cell holding t and returns
// that cell when its values hold at t; otherwise, and for a nil grid, nil.
func (g *grid) trusted(i *int, t float64) *cell {
	if g == nil {
		return nil
	}
	for *i < len(g.cells)-1 && g.cells[*i].end <= t {
		*i++
	}
	if c := &g.cells[*i]; c.start <= t && t <= c.until {
		return c
	}
	return nil
}

// Validate checks the Env is runnable.
func (e *Env) Validate() error {
	if e.Ref.Name == "" {
		return fmt.Errorf("scenario: env has no catalog name")
	}
	if e.Duration <= 0 {
		return fmt.Errorf("scenario: env duration must be positive, got %g", e.Duration)
	}
	for _, s := range e.Stressors {
		if err := validateStressor(s); err != nil {
			return fmt.Errorf("scenario: %s: %w", e.Ref, err)
		}
	}
	return nil
}

// validateStressor rejects the configurations that would make a stressor
// divide by zero or never advance: every period, window and step count must
// be positive, a telegraph must pass retention.VRT.Validate, and a gate
// needs an inner stressor.
func validateStressor(s Stressor) error {
	positive := func(what string, v float64) error {
		if !(v > 0) {
			return fmt.Errorf("stressor %q: %s must be positive, got %g", s.Name(), what, v)
		}
		return nil
	}
	switch s := s.(type) {
	case nil:
		return fmt.Errorf("nil stressor")
	case TempCycle:
		if err := positive("period", s.Period); err != nil {
			return err
		}
		return positive("steps", float64(s.Steps))
	case AgingRamp:
		if err := positive("window", s.Window); err != nil {
			return err
		}
		return positive("steps", float64(s.Steps))
	case PatternAdversary:
		return positive("frame period", s.FramePeriod)
	case VRTStressor:
		// A non-positive or NaN dwell gives NaN change-points, which never
		// split the walk.
		if err := s.V.Validate(); err != nil {
			return fmt.Errorf("stressor %q: %w", s.Name(), err)
		}
	case Gate:
		if err := positive("period", s.Period); err != nil {
			return err
		}
		if s.Inner == nil {
			return fmt.Errorf("stressor %q: gate has no inner stressor", s.Name())
		}
		return validateStressor(s.Inner)
	}
	return nil
}

// envStateTag versions the Env snapshot blob.
const envStateTag = "scn1"

// SnapshotState implements core.Snapshotter. Stressors are pure functions
// of (seed, row, time), so the blob is an identity record - scenario name,
// version, seed, window, and the stressor roster - and RestoreState is a
// validation that the resuming run rebuilt the same schedule. That is the
// whole resume story: with no mutable state there is nothing else a
// checkpoint could drift on.
func (e *Env) SnapshotState() ([]byte, error) {
	var enc core.StateEncoder
	enc.Tag(envStateTag)
	enc.Bytes([]byte(e.Ref.Name))
	enc.Int(int64(e.Ref.Version))
	enc.Int(e.Seed)
	enc.Float(e.Duration)
	enc.Int(int64(len(e.Stressors)))
	for _, s := range e.Stressors {
		enc.Bytes([]byte(s.Name()))
	}
	return enc.Data(), nil
}

// RestoreState implements core.Snapshotter by validating the snapshot names
// this exact schedule.
func (e *Env) RestoreState(blob []byte) error {
	d := core.NewStateDecoder(blob)
	d.ExpectTag(envStateTag)
	name := string(d.Bytes())
	version := int(d.Int())
	seed := d.Int()
	duration := d.Float()
	n := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if n < 0 || n > int64(len(e.Stressors)) {
		return fmt.Errorf("scenario: snapshot lists %d stressors, env has %d", n, len(e.Stressors))
	}
	names := make([]string, n)
	for i := range names {
		names[i] = string(d.Bytes())
	}
	if err := d.Finish(); err != nil {
		return err
	}
	if name != e.Ref.Name || version != e.Ref.Version {
		return fmt.Errorf("scenario: snapshot is for %s@v%d, env is %s", name, version, e.Ref)
	}
	if seed != e.Seed {
		return fmt.Errorf("scenario: snapshot seed %d, env seed %d", seed, e.Seed)
	}
	if duration != e.Duration {
		return fmt.Errorf("scenario: snapshot window %g, env window %g", duration, e.Duration)
	}
	if int(n) != len(e.Stressors) {
		return fmt.Errorf("scenario: snapshot lists %d stressors, env has %d", n, len(e.Stressors))
	}
	for i, s := range e.Stressors {
		if names[i] != s.Name() {
			return fmt.Errorf("scenario: snapshot stressor %d is %q, env has %q", i, names[i], s.Name())
		}
	}
	return nil
}

// --- seeded stream derivation ------------------------------------------------

// splitmix64 is the standard 64-bit finalizing mixer (the same generator
// internal/fleet derives device populations with).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unitOf maps a hash to [0, 1).
func unitOf(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// posSeed folds a hash into a positive, non-zero int64 seed.
func posSeed(h uint64) int64 {
	s := int64(h &^ (1 << 63))
	if s == 0 {
		return 1
	}
	return s
}

// labelHash hashes a stressor label (FNV-1a) into the salt that separates
// its stream from every other stressor's.
func labelHash(label string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return h
}

// StreamSeed derives the independent seed of the stressor labelled label
// within the scenario seeded by seed. Streams are keyed by label, not by
// position, so a stressor draws the same values whether it runs alone or
// inside a composition - the stream-independence property the composed
// scenarios (and their tests) rely on.
func StreamSeed(seed int64, label string) int64 {
	return posSeed(splitmix64(splitmix64(uint64(seed)) ^ labelHash(label)))
}

// streamUnit returns a deterministic draw in [0,1) for (seed, label, k).
func streamUnit(seed int64, label string, k int64) float64 {
	return unitOf(splitmix64(uint64(StreamSeed(seed, label)) ^ splitmix64(uint64(k)+0x6a09e667f3bcc909)))
}

// frameOf returns the frame index floor(t/period) clamped to >= 0.
func frameOf(t, period float64) int64 {
	if t <= 0 {
		return 0
	}
	k := math.Floor(t / period)
	return int64(k)
}

// frame returns frameOf(t, period) and frameNext(t, period) from one
// division, with the same arithmetic as the two functions. The segmenters
// use it; ScaleAt and NextChange keep the separate functions, so the
// reference walk does not share this code with the production walk.
func frame(t, period float64) (k int64, next float64) {
	q := math.Floor(t / period)
	if !(t <= 0) {
		k = int64(q)
	}
	next = (q + 1) * period
	if next <= t {
		next = retention.StepPast(t, 1e-9*period)
	}
	return k, next
}

// frameNext returns the first frame boundary strictly after t for the given
// period, guarding against floating-point stalls with retention.StepPast,
// as retention.VRT's toggle walk does.
func frameNext(t, period float64) float64 {
	k := math.Floor(t / period)
	next := (k + 1) * period
	if next <= t {
		next = retention.StepPast(t, 1e-9*period)
	}
	return next
}
