package scenario

import (
	"math"

	"vrldram/internal/retention"
)

// The concrete stressors. Each one is a pure function of its configuration:
// per-row and per-time draws come from the label-keyed splitmix64 stream, so
// two stressors with different labels are statistically independent and a
// stressor draws identically whether it runs alone or composed (the
// stream-independence property the composition tests pin down).

// TempCycle models a diurnal datacenter thermal cycle as a staircase
// sinusoid: the cycle is quantized into Steps constant-temperature treads
// (retention modulation must be piecewise constant for exact segment
// integration), and each tread's retention scale comes from the standard
// thermal model. The phase offset is drawn from the scenario stream, so two
// devices in a fleet do not heat in lockstep.
type TempCycle struct {
	Label      string
	Model      retention.TempModel
	MeanC      float64 // cycle mean temperature (degC)
	AmplitudeC float64 // peak deviation from the mean (degC)
	Period     float64 // full cycle length (s)
	Steps      int     // treads per cycle
	PhaseFrac  float64 // cycle phase offset in [0,1)
}

// NewTempCycle draws the phase from the scenario stream keyed by label.
func NewTempCycle(seed int64, label string, model retention.TempModel, meanC, amplitudeC, period float64, steps int) TempCycle {
	return TempCycle{
		Label:      label,
		Model:      model,
		MeanC:      meanC,
		AmplitudeC: amplitudeC,
		Period:     period,
		Steps:      steps,
		PhaseFrac:  streamUnit(seed, label, 0),
	}
}

// Name implements Stressor.
func (c TempCycle) Name() string { return c.Label }

// TempAt returns the tread temperature at time t.
func (c TempCycle) TempAt(t float64) float64 {
	pos := t/c.Period + c.PhaseFrac
	k := int64(math.Floor(pos * float64(c.Steps)))
	step := k % int64(c.Steps)
	if step < 0 {
		step += int64(c.Steps)
	}
	// Sample the sinusoid at the tread midpoint so the staircase is centered
	// on the continuous cycle it approximates.
	ang := 2 * math.Pi * (float64(step) + 0.5) / float64(c.Steps)
	return c.MeanC + c.AmplitudeC*math.Sin(ang)
}

// ScaleAt implements Stressor: rows share the device's temperature.
func (c TempCycle) ScaleAt(row int, tret, t float64) float64 {
	return c.Model.Scale(c.TempAt(t))
}

// RowInvariant implements the RowInvariant capability: every row shares the
// device temperature.
func (c TempCycle) RowInvariant() bool { return true }

// MinScale implements ScaleFloor: every tread lies within AmplitudeC of
// MeanC, and the thermal scale is monotone in temperature.
func (c TempCycle) MinScale() float64 {
	a := math.Abs(c.AmplitudeC)
	return math.Min(c.Model.Scale(c.MeanC+a), c.Model.Scale(c.MeanC-a))
}

// NextChange implements Stressor: the next tread boundary.
func (c TempCycle) NextChange(row int, tret, t float64) float64 {
	treads := float64(c.Steps)
	k := math.Floor((t/c.Period + c.PhaseFrac) * treads)
	next := ((k+1)/treads - c.PhaseFrac) * c.Period
	if next <= t {
		next = retention.StepPast(t, 1e-9*c.Period/treads)
	}
	return next
}

// NominalUntil implements the nominalReporter capability for the
// fast-forward engine: a tread whose thermal scale is exactly 1 is nominal
// until the next tread boundary (the boundary itself ends the window even if
// the next tread is also scale 1, because the segment-walk split there is
// itself non-identity).
func (c TempCycle) NominalUntil(from float64) float64 {
	if c.Model.Scale(c.TempAt(from)) != 1 {
		return from
	}
	return c.NextChange(0, 1, from)
}

// VRTStressor adapts a retention.VRT random-telegraph process to the
// Stressor interface: ScaleAt is the telegraph state factor and NextChange
// the next toggle, using exactly the boundary arithmetic of
// retention.VRT.DecayFactor - so an Env holding a single VRTStressor
// integrates bit-identically to a bank running that VRT directly (the
// equivalence the scenario tests assert).
type VRTStressor struct {
	Label string
	V     retention.VRT
}

// NewVRTStressor seeds the telegraph process from the scenario stream keyed
// by label.
func NewVRTStressor(seed int64, label string, v retention.VRT) VRTStressor {
	v.Seed = StreamSeed(seed, label)
	return VRTStressor{Label: label, V: v}
}

// Name implements Stressor.
func (s VRTStressor) Name() string { return s.Label }

// ScaleAt implements Stressor.
func (s VRTStressor) ScaleAt(row int, tret, t float64) float64 {
	return s.V.StateFactor(row, tret, t)
}

// NextChange implements Stressor.
func (s VRTStressor) NextChange(row int, tret, t float64) float64 {
	return s.V.NextToggle(row, tret, t)
}

// MinScale implements ScaleFloor: a row is in the high state (1) or the
// low one.
func (s VRTStressor) MinScale() float64 { return math.Min(1, s.V.LowFactor) }

// segment implements segmenter: the telegraph state and next toggle from
// one pass over the row's hashes.
func (s VRTStressor) segment(row int, tret, t float64) (scale, next float64) {
	return s.V.Segment(row, tret, t)
}

// PatternAdversary models write-heavy data-pattern dependence: an adversary
// (or just an unlucky workload) periodically rewrites a fraction of rows
// with a worst-case coupling pattern, derating their retention by the
// pattern factor until the next rewrite frame. Which rows are hot re-draws
// every frame from the stream, so the stress walks the bank instead of
// pinning the same victims.
type PatternAdversary struct {
	Label       string
	Seed        int64             // stream seed (derived from the scenario seed)
	FramePeriod float64           // rewrite cadence (s)
	HotFrac     float64           // fraction of rows holding the hostile pattern per frame
	Pattern     retention.Pattern // the pattern written to hot rows
}

// NewPatternAdversary derives the stream from the scenario seed keyed by
// label.
func NewPatternAdversary(seed int64, label string, framePeriod, hotFrac float64, pattern retention.Pattern) PatternAdversary {
	return PatternAdversary{
		Label:       label,
		Seed:        StreamSeed(seed, label),
		FramePeriod: framePeriod,
		HotFrac:     hotFrac,
		Pattern:     pattern,
	}
}

// Name implements Stressor.
func (a PatternAdversary) Name() string { return a.Label }

// hot reports whether the row holds the hostile pattern during frame k.
func (a PatternAdversary) hot(row int, k int64) bool {
	h := splitmix64(uint64(a.Seed)) ^ splitmix64(uint64(row)+0x6a09e667f3bcc909) ^ splitmix64(uint64(k)+0x517cc1b727220a95)
	return unitOf(splitmix64(h)) < a.HotFrac
}

// frameKey and rowKey split hot's hash: hot(row, k) is
// unitOf(splitmix64(rowKey(row) ^ a.frameKey(k))) < HotFrac, as XOR is
// associative, so a walk hashes its row once and each frame once per Env.
func (a PatternAdversary) frameKey(k int64) uint64 {
	return splitmix64(uint64(a.Seed)) ^ splitmix64(uint64(k)+0x517cc1b727220a95)
}

func rowKey(row int) uint64 { return splitmix64(uint64(row) + 0x6a09e667f3bcc909) }

// ScaleAt implements Stressor.
func (a PatternAdversary) ScaleAt(row int, tret, t float64) float64 {
	if a.hot(row, frameOf(t, a.FramePeriod)) {
		return retention.PatternFactor(a.Pattern)
	}
	return 1
}

// NextChange implements Stressor: the next rewrite frame.
func (a PatternAdversary) NextChange(row int, tret, t float64) float64 {
	return frameNext(t, a.FramePeriod)
}

// MinScale implements ScaleFloor: a row is cold (1) or hot.
func (a PatternAdversary) MinScale() float64 {
	return math.Min(1, retention.PatternFactor(a.Pattern))
}

// segment implements segmenter: one frame computation for both values.
func (a PatternAdversary) segment(row int, tret, t float64) (scale, next float64) {
	k, next := frame(t, a.FramePeriod)
	if a.hot(row, k) {
		return retention.PatternFactor(a.Pattern), next
	}
	return 1, next
}

// NominalUntil implements the nominalReporter capability. A frame with any
// hot rows is never device-wide nominal; with HotFrac <= 0 no row is ever
// hot, but each frame boundary still ends the nominal window (the segment
// split is non-identity on its own).
func (a PatternAdversary) NominalUntil(from float64) float64 {
	if a.HotFrac <= 0 {
		return a.NextChange(0, 1, from)
	}
	return from
}

// AgingRamp compresses multi-year wear into the run window: retention
// degrades along a staircase from zero aging at t=0 to Years of aging at
// t=Window, following the aging model. The staircase keeps the modulation
// piecewise constant; Steps trades fidelity against segment count.
type AgingRamp struct {
	Label  string
	Model  retention.AgingModel
	Years  float64 // total simulated aging reached at t = Window
	Window float64 // the run window the ramp spans (s)
	Steps  int
}

// Name implements Stressor.
func (a AgingRamp) Name() string { return a.Label }

// step returns the ramp step index at time t, clamped to [0, Steps].
func (a AgingRamp) step(t float64) int64 {
	if t <= 0 {
		return 0
	}
	k := int64(math.Floor(t / a.Window * float64(a.Steps)))
	if k > int64(a.Steps) {
		k = int64(a.Steps)
	}
	return k
}

// ScaleAt implements Stressor.
func (a AgingRamp) ScaleAt(row int, tret, t float64) float64 {
	years := a.Years * float64(a.step(t)) / float64(a.Steps)
	return a.Model.Scale(years)
}

// RowInvariant implements the RowInvariant capability: wear accrues
// device-wide.
func (a AgingRamp) RowInvariant() bool { return true }

// MinScale implements ScaleFloor: the ramp's aging stays within [0, Years]
// (step clamps to [0, Steps] for a positive window), and the aging scale
// falls with age while RatePerYear < 1. Any other ramp reports no floor.
func (a AgingRamp) MinScale() float64 {
	if a.Steps <= 0 || !(a.Window > 0) || !(a.Model.RatePerYear < 1) {
		return 0
	}
	return math.Min(1, a.Model.Scale(a.Years))
}

// NextChange implements Stressor.
func (a AgingRamp) NextChange(row int, tret, t float64) float64 {
	if a.step(t) >= int64(a.Steps) {
		return math.Inf(1)
	}
	return frameNext(t, a.Window/float64(a.Steps))
}

// NominalUntil implements the nominalReporter capability: the ramp's step 0
// is unaged (scale 1) and each later step may not be, so the window runs to
// the next staircase boundary only while the current step's scale is 1.
func (a AgingRamp) NominalUntil(from float64) float64 {
	if a.ScaleAt(0, 1, from) != 1 {
		return from
	}
	return a.NextChange(0, 1, from)
}

// Gate is the episodic-activation combinator: time is cut into Period-long
// episodes, each independently active with probability ActiveProb (drawn
// from the stream keyed by Label), and the inner stressor only acts during
// active episodes. A VRT storm is a Gate over an aggressive VRT process:
// bursts of telegraph activity separated by calm.
type Gate struct {
	Label      string
	Seed       int64 // stream seed (derived from the scenario seed)
	Period     float64
	ActiveProb float64
	Inner      Stressor
}

// NewGate derives the episode stream from the scenario seed keyed by label.
func NewGate(seed int64, label string, period, activeProb float64, inner Stressor) Gate {
	return Gate{Label: label, Seed: StreamSeed(seed, label), Period: period, ActiveProb: activeProb, Inner: inner}
}

// Name implements Stressor.
func (g Gate) Name() string { return g.Label }

// active reports whether episode k is active.
func (g Gate) active(k int64) bool {
	return unitOf(splitmix64(uint64(g.Seed)^splitmix64(uint64(k)+0x2545f4914f6cdd1d))) < g.ActiveProb
}

// ScaleAt implements Stressor.
func (g Gate) ScaleAt(row int, tret, t float64) float64 {
	if !g.active(frameOf(t, g.Period)) {
		return 1
	}
	return g.Inner.ScaleAt(row, tret, t)
}

// RowInvariant implements the RowInvariant capability: a gate is
// row-invariant exactly when its inner stressor is (the episode draws are
// keyed by time alone).
func (g Gate) RowInvariant() bool {
	inv, ok := g.Inner.(RowInvariant)
	return ok && inv.RowInvariant()
}

// MinScale implements ScaleFloor: a calm episode is 1, an active one the
// inner stressor's scale; an inner stressor without a floor gives none.
func (g Gate) MinScale() float64 {
	f, ok := g.Inner.(ScaleFloor)
	if !ok {
		return 0
	}
	return math.Min(1, f.MinScale())
}

// NominalUntil implements the nominalReporter capability: a calm (inactive)
// episode is identity until its boundary; an active episode is never nominal
// regardless of the inner stressor's current value (the inner change-points
// would split the walk anyway). This is what lets the fast-forward engine
// macro-step the calm stretches of a VRT storm.
func (g Gate) NominalUntil(from float64) float64 {
	if g.active(frameOf(from, g.Period)) {
		return from
	}
	return frameNext(from, g.Period)
}

// NextChange implements Stressor: the episode boundary, or the inner
// stressor's next change if it comes sooner during an active episode.
func (g Gate) NextChange(row int, tret, t float64) float64 {
	boundary := frameNext(t, g.Period)
	if g.active(frameOf(t, g.Period)) {
		if n := g.Inner.NextChange(row, tret, t); n < boundary {
			return n
		}
	}
	return boundary
}

// segment implements segmenter: one episode draw, and the inner stressor
// evaluated once and only inside an active episode, capped at the boundary
// exactly as NextChange caps it.
func (g Gate) segment(row int, tret, t float64) (scale, next float64) {
	k, boundary := frame(t, g.Period)
	if !g.active(k) {
		return 1, boundary
	}
	scale, next = segmentOf(g.Inner, row, tret, t)
	if !(next < boundary) {
		next = boundary
	}
	return scale, next
}
