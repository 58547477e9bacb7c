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
// ramp). An Env compiles one change-point timeline over its run window per
// invariant stressor, once, and every later decay call reads it instead of
// re-walking that stressor's schedule.
type RowInvariant interface {
	Stressor
	RowInvariant() bool
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

// split is the segmenter of a stressor without the capability.
type split struct{ Stressor }

func (s split) segment(row int, tret, t float64) (scale, next float64) {
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
	// change after the first DecayFactor or DecayFactors call, which
	// compiles the row-invariant part of the schedule.
	Stressors []Stressor

	compileOnce sync.Once
	compiled    []stressorPlan // see compiledSchedule
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
// The row-invariant stressors are read from the schedule compiled on the
// first call (see compiledSchedule) wherever a compiled segment is trusted;
// at any other time, the run window's outside included, and for the
// stressors that depend on the row, the schedule is walked directly. Either
// way the result equals decayFactorRef bit for bit.
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

// stressorPlan is how decayFactorWith evaluates one stressor of the roster:
// from its compiled timeline where a segment is trusted, and through eval
// everywhere else. eval is the stressor's own segmenter, a memoGate for a
// gate, or split for a stressor without the capability.
//
// When eval is a telegraph (a VRTStressor, or a memoGate over one), vrt is
// that telegraph's process: a walk binds its row to it once
// (retention.VRT.Row) and evaluates the plan with boundSegment, instead of
// re-hashing the row in every segment.
type stressorPlan struct {
	segs []envSegment // row-invariant timeline over the run window; nil = none
	eval segmenter
	vrt  *retention.VRT // the telegraph eval steps through; nil = none
	gate *memoGate      // eval when it is a memoized gate over vrt
}

// newPlan returns the evaluation plan of one stressor over a run window.
// walked reports whether a walk keeps state on its stack for the stressor's
// roster position; only such a position gets a compiled timeline (when the
// stressor declares RowInvariant) or a telegraph to bind. A Gate without a
// timeline gets its episode draws memoized either way.
func newPlan(s Stressor, duration float64, walked bool) stressorPlan {
	var p stressorPlan
	if inv, ok := s.(RowInvariant); ok && inv.RowInvariant() && walked {
		p.segs = buildTimeline(s, duration)
	}
	if sg, ok := s.(segmenter); ok {
		p.eval = sg
	} else {
		p.eval = split{s}
	}
	if g, ok := s.(Gate); ok && p.segs == nil {
		if m := newMemoGate(g, duration); m != nil {
			p.eval = m
		}
	}
	if !walked {
		return p
	}
	switch ev := p.eval.(type) {
	case VRTStressor:
		p.vrt = &ev.V
	case *memoGate:
		if v, ok := ev.Inner.(VRTStressor); ok {
			p.vrt, p.gate = &v.V, ev
		}
	}
	return p
}

// boundSegment is p.eval.segment(row, tret, t) for a plan with a telegraph,
// with r = p.vrt.Row(row, tret): the same episode draw and boundary cap as
// gateSegment for a memoized gate, the bound row's segment otherwise.
func (p *stressorPlan) boundSegment(r *retention.VRTRow, t float64) (scale, next float64) {
	if p.gate == nil {
		return r.Segment(t)
	}
	k, boundary := frame(t, p.gate.Period)
	if !p.gate.active(k) {
		return 1, boundary
	}
	scale, next = r.Segment(t)
	if !(next < boundary) {
		next = boundary
	}
	return scale, next
}

// envSegment is one compiled segment of a row-invariant stressor's
// schedule: ScaleAt(start) and NextChange(start), evaluated once.
//
// A stressor is piecewise constant only up to rounding: its ScaleAt and
// NextChange compute the change-point separately, so within a few ulps of a
// segment's ends they can disagree with the values taken at start (the
// catalog's thermal cycle already reads the next tread one ulp before the
// boundary its NextChange reports). The values agree at start by
// construction, so the rounding that matters is just below end: the compiled
// values are used only on [start, until], which stops edgeGuard of the run
// window short of end and never passes Duration; anywhere else the stressor
// is evaluated directly, as the reference does.
type envSegment struct {
	start, end float64
	scale      float64
	until      float64 // until == start: trusted at start only
}

// maxCachedSegments bounds timeline construction; a stressor whose schedule
// is finer than this over the run window is evaluated directly instead.
const maxCachedSegments = 4096

// edgeGuard is the margin, as a fraction of the run window, that a compiled
// segment's trusted span keeps from its ends: orders of magnitude wider than
// the rounding disagreement it guards against, and narrow enough that a
// query almost never lands in it.
const edgeGuard = 1e-9

// compiledSchedule returns the Env's evaluation plan, building it on the
// first call, indexed like e.Stressors: one timeline over [0, Duration] for
// every stressor among the first walkCursors that declares RowInvariant,
// and for every Gate without a timeline, its episode draws memoized over
// the run window (see memoGate). The timelines are kept per stressor rather
// than multiplied together, so decayFactorWith can keep the roster's
// multiplication order and with it the reference's bits. The build is lazy
// because callers may append stressors between BuildEnv and the run.
func (e *Env) compiledSchedule() []stressorPlan {
	e.compileOnce.Do(func() {
		e.compiled = make([]stressorPlan, len(e.Stressors))
		for si, s := range e.Stressors {
			e.compiled[si] = newPlan(s, e.Duration, si < walkCursors)
		}
	})
	return e.compiled
}

// memoGate is a Gate whose episode draws over the run window are computed
// once per Env: on[k] = Gate.active(k) for k in [0, frameOf(Duration)+1].
// Any other k is drawn directly, so the memo is exact by construction, and
// a walk through a calm episode costs one frame computation and never
// touches the inner stressor.
type memoGate struct {
	Gate
	on []bool
}

// newMemoGate memoizes the gate's episodes over [0, duration], or returns
// nil when the window spans more than maxCachedSegments episodes (or none
// that frameOf can count); the gate is then evaluated directly.
func newMemoGate(g Gate, duration float64) *memoGate {
	n := frameOf(duration, g.Period) + 2
	if n <= 0 || n > maxCachedSegments {
		return nil
	}
	m := &memoGate{Gate: g, on: make([]bool, n)}
	for k := range m.on {
		m.on[k] = g.active(int64(k))
	}
	return m
}

// active returns episode k's activity from the memo when k is in range and
// from the draw otherwise.
func (m *memoGate) active(k int64) bool {
	if uint64(k) < uint64(len(m.on)) {
		return m.on[k]
	}
	return m.Gate.active(k)
}

// segment implements segmenter with the memoized episode draws.
func (m *memoGate) segment(row int, tret, t float64) (scale, next float64) {
	k, boundary := frame(t, m.Period)
	return gateSegment(m.active(k), boundary, m.Inner, row, tret, t)
}

// DecayFactors implements dram.BatchModulator: out[i] is
// DecayFactor(rows[i], tret[i], t0[i], t1[i], base), bit for bit. Every
// row reads the one schedule compiled per Env, so a batch costs no more set-up
// than a scalar call.
func (e *Env) DecayFactors(rows []int, tret, t0, t1 []float64, base retention.DecayModel, out []float64) {
	for i := range rows {
		out[i] = e.DecayFactor(rows[i], tret[i], t0[i], t1[i], base)
	}
}

// buildTimeline walks one row-invariant stressor's schedule across
// [0, duration]. It returns nil when the walk stalls or the schedule is too
// fine to be worth caching; the caller then evaluates the stressor directly,
// which is always correct. Each segment's trusted span ends at until, where
// it is checked against the stressor itself; a segment that fails, or is
// shorter than the guard, is trusted at its start only. The catalog
// stressors locate their change-points with floors of functions that
// increase with t, so agreement at start (by construction) and at until
// means agreement across the span.
func buildTimeline(s Stressor, duration float64) []envSegment {
	guard := edgeGuard * duration
	segs := make([]envSegment, 0, 8)
	t := 0.0
	for t <= duration {
		scale := s.ScaleAt(0, 1, t)
		next := s.NextChange(0, 1, t)
		if next <= t || len(segs) == maxCachedSegments {
			return nil
		}
		seg := envSegment{start: t, end: next, scale: scale, until: math.Min(next-guard, duration)}
		if seg.until < seg.start || !seg.agrees(s, seg.until) {
			seg.until = seg.start
		}
		segs = append(segs, seg)
		t = next
	}
	return segs
}

// agrees reports whether the stressor, evaluated directly at t, gives the
// segment's compiled values.
func (g *envSegment) agrees(s Stressor, t float64) bool {
	return s.ScaleAt(0, 1, t) == g.scale && s.NextChange(0, 1, t) == g.end
}

// trusted reports whether the compiled values hold at t.
func (g *envSegment) trusted(t float64) bool {
	return g.start <= t && t <= g.until
}

// segIndex locates the segment containing t: the first whose end exceeds t.
func segIndex(segs []envSegment, t float64) int {
	lo, hi := 0, len(segs)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if segs[mid].end > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// walkCursors is how many roster positions a walk keeps a timeline cursor
// and a bound telegraph row for on the stack; only those positions get a
// compiled timeline or a telegraph binding.
const walkCursors = 8

// decayFactorWith is decayFactorRef evaluated through the compiled plan.
// The roster order, multiplication order, segment walk, and guard structure
// mirror decayFactorRef exactly. Where a compiled segment is trusted its
// values are what the stressor's ScaleAt and NextChange return there
// (row-invariance plus the checks in buildTimeline); elsewhere the plan's
// evaluator returns them in one call (segmenter, memoGate, or the bound
// telegraph row), and both walks accumulate through retention.DecayWalk.
// So the two paths agree bit for bit.
//
// t only increases along the walk, so each timeline is located by binary
// search once, at t0, and then followed by a cursor that steps forward to
// the first segment whose end exceeds t: the index segIndex would return.
// The walk's row and tret never change, so each telegraph's row hashes are
// taken once, at t0, and every segment steps the bound row.
func (e *Env) decayFactorWith(plan []stressorPlan, row int, tret, t0, t1 float64, base retention.DecayModel) float64 {
	if t1 <= t0 {
		return 1
	}
	var cursor [walkCursors]int
	var bound [walkCursors]retention.VRTRow
	for si := range plan {
		p := &plan[si]
		if p.segs != nil {
			cursor[si] = segIndex(p.segs, t0)
		}
		if p.vrt != nil {
			bound[si] = p.vrt.Row(row, tret)
		}
	}
	walk := retention.NewDecayWalk(base)
	t := t0
	for t < t1 {
		scale := 1.0
		next := t1
		for si := range plan {
			p := &plan[si]
			if segs := p.segs; segs != nil {
				i := cursor[si]
				for i < len(segs)-1 && segs[i].end <= t {
					i++
				}
				cursor[si] = i
				if seg := &segs[i]; seg.trusted(t) {
					scale *= seg.scale
					if seg.end < next {
						next = seg.end
					}
					continue
				}
			}
			var s, n float64
			if p.vrt != nil {
				s, n = p.boundSegment(&bound[si], t)
			} else {
				s, n = p.eval.segment(row, tret, t)
			}
			scale *= s
			if n < next {
				next = n
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
		next = t + 1e-9*period
	}
	return k, next
}

// frameNext returns the first frame boundary strictly after t for the given
// period, guarding against floating-point stalls the same way
// retention.VRT's toggle loop does.
func frameNext(t, period float64) float64 {
	k := math.Floor(t / period)
	next := (k + 1) * period
	if next <= t {
		next = t + 1e-9*period
	}
	return next
}
