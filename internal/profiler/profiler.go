// Package profiler simulates retention-time profiling of a DRAM bank, in
// the style of the works the paper builds on (Liu et al. ISCA'13, REAPER
// ISCA'17): write a data pattern, disable refresh for a candidate retention
// interval, read back, and classify each row by the longest interval it
// survives. VRL-DRAM assumes such a profile "is available, e.g., using
// methods in previous works" (Section 3); this package closes that loop so
// the repository's profiles can be MEASURED from a simulated chip instead of
// constructed.
//
// Profiling at "aggressive conditions" (REAPER's key idea) is modeled by
// testing at a margin-extended interval: a row passes the interval T only if
// it still senses correctly after T/Margin, with Margin < 1 giving slack for
// variable retention time and temperature drift.
package profiler

import (
	"fmt"
	"math"

	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/retention"
)

// Options configures a profiling campaign.
type Options struct {
	// Intervals are the candidate retention intervals tested, in seconds,
	// in increasing order (defaults to the RAIDR bin boundaries plus a
	// generous top interval).
	Intervals []float64
	// Patterns are the data backgrounds written before each test round
	// (defaults to all four of the paper's Section 3.1 patterns; the
	// classification keeps the worst round).
	Patterns []retention.Pattern
	// Margin < 1 extends each tested interval to 1/Margin of its nominal
	// value, REAPER-style profiling at aggressive conditions. Defaults to
	// retention.ProfilerGuardband.
	Margin float64
}

func (o Options) withDefaults() Options {
	if o.Intervals == nil {
		o.Intervals = append(append([]float64{}, retention.RAIDRBins...),
			0.384, 0.512, 0.768, 1.024, 1.536, 2.048, 3.072, 4.096)
	}
	if o.Patterns == nil {
		o.Patterns = retention.Patterns
	}
	if o.Margin == 0 {
		o.Margin = retention.ProfilerGuardband
	}
	return o
}

// Validate reports the first unusable option.
func (o Options) Validate() error {
	if len(o.Intervals) == 0 {
		return fmt.Errorf("profiler: no test intervals")
	}
	prev := 0.0
	for i, iv := range o.Intervals {
		if !(iv > prev) || math.IsInf(iv, 1) { // rejects NaN too
			return fmt.Errorf("profiler: intervals must be finite and increase (index %d: %g)", i, iv)
		}
		prev = iv
	}
	if len(o.Patterns) == 0 {
		return fmt.Errorf("profiler: no test patterns")
	}
	if !(o.Margin > 0 && o.Margin <= 1) { // rejects NaN too
		return fmt.Errorf("profiler: margin %g outside (0,1]", o.Margin)
	}
	return nil
}

// Result is the outcome of one campaign.
type Result struct {
	// Profile has Profiled set to the measured per-row retention (the
	// largest margin-extended interval each row survived under every
	// pattern) and True copied from the chip under test.
	Profile *retention.BankProfile
	// Rounds is the number of (interval, pattern) test rounds executed.
	Rounds int
	// FailCounts[i] is the number of rows that failed interval i under at
	// least one pattern.
	FailCounts []int
}

// Profile runs the campaign against a simulated chip: a bank whose true
// retention comes from trueProfile. Each round writes one pattern,
// lets the bank decay for the margin-extended interval, and senses every
// row; a row is classified at the largest interval it always survives.
func Profile(trueProfile *retention.BankProfile, decay retention.DecayModel, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if trueProfile == nil {
		return nil, fmt.Errorf("profiler: nil chip profile")
	}
	if decay == nil {
		decay = retention.ExpDecay{}
	}
	rows := trueProfile.Geom.Rows

	// survived[r] = largest interval index the row survived across ALL
	// patterns; -1 if it failed even the shortest.
	survived := make([]int, rows)
	for r := range survived {
		survived[r] = len(opts.Intervals) - 1
	}
	res := &Result{FailCounts: make([]int, len(opts.Intervals))}

	for _, pat := range opts.Patterns {
		bank, err := dram.NewBank(trueProfile, decay, pat)
		if err != nil {
			return nil, err
		}
		for i, iv := range opts.Intervals {
			res.Rounds++
			wait := iv / opts.Margin
			// Write (full restore) at t0, sense at t0+wait. Rounds are laid
			// out back-to-back on the bank's private timeline.
			t0 := float64(res.Rounds) * (opts.Intervals[len(opts.Intervals)-1] / opts.Margin * 2)
			for r := 0; r < rows; r++ {
				if _, _, err := bank.Access(r, dram.Ticks(t0), 0); err != nil {
					return nil, err
				}
			}
			failedThisRound := false
			for r := 0; r < rows; r++ {
				v, err := bank.ChargeAt(r, dram.Ticks(t0+wait))
				if err != nil {
					return nil, err
				}
				if v < retention.SenseLimit {
					failedThisRound = true
					if survived[r] > i-1 {
						survived[r] = i - 1
					}
				}
			}
			if failedThisRound {
				res.FailCounts[i]++
			}
		}
	}

	profiled := make([]float64, rows)
	for r := 0; r < rows; r++ {
		if survived[r] < 0 {
			return nil, fmt.Errorf("profiler: row %d fails even the %v s interval; chip unusable", r, opts.Intervals[0])
		}
		profiled[r] = opts.Intervals[survived[r]]
	}
	res.Profile = &retention.BankProfile{
		Geom:     trueProfile.Geom,
		True:     append([]float64(nil), trueProfile.True...),
		Profiled: profiled,
	}
	return res, nil
}

// ProfileRow runs a targeted single-row campaign against the chip: the
// interval ladder of a full Profile pass, but for one suspect row, closed
// form instead of a bank-wide write/wait/sense loop (the interval test
// "does the row still sense correctly after iv/Margin?" is evaluated
// directly against the decay law at the row's worst-pattern retention).
// It returns the largest interval the row survives every pattern at, or 0
// when the row fails even the shortest interval - the caller's signal that
// no refresh schedule can carry the row and it must be quarantined.
//
// This is the scrubber's diagnose step (internal/scrub Config.Reprofile):
// deterministic, so it can run inside a checkpointed simulation loop.
func ProfileRow(chip *retention.BankProfile, decay retention.DecayModel, row int, opts Options) (float64, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return 0, err
	}
	if chip == nil {
		return 0, fmt.Errorf("profiler: nil chip profile")
	}
	if row < 0 || row >= len(chip.True) {
		return 0, fmt.Errorf("profiler: row %d outside [0,%d)", row, len(chip.True))
	}
	if decay == nil {
		decay = retention.ExpDecay{}
	}
	// The worst pattern bounds every pattern in opts.Patterns, and
	// PatternFactor is multiplicative on retention, so one evaluation at the
	// worst factor matches the keep-the-worst-round classification of a full
	// campaign.
	worst := math.Inf(1)
	for _, p := range opts.Patterns {
		if f := retention.PatternFactor(p); f < worst {
			worst = f
		}
	}
	tret := chip.True[row] * worst
	measured := 0.0
	for _, iv := range opts.Intervals {
		if decay.Factor(iv/opts.Margin, tret) < retention.SenseLimit {
			break
		}
		measured = iv
	}
	return measured, nil
}

// VerifyConservative checks the fundamental profiling guarantee: every
// measured retention must be at most the row's worst-pattern true retention
// (no overestimates, which would be unsafe). It returns the number of
// overestimated rows (0 for a sound profiler).
func VerifyConservative(r *Result) int {
	bad := 0
	worst := retention.WorstPatternFactor()
	for i, measured := range r.Profile.Profiled {
		if measured > r.Profile.True[i]*worst+1e-12 {
			bad++
		}
	}
	return bad
}

// DefaultCampaign profiles a freshly sampled chip of the given geometry and
// seed with default options - the one-call path the examples use.
func DefaultCampaign(geom device.BankGeometry, seed int64) (*Result, error) {
	dist := retention.DefaultCellDistribution()
	chip, err := retention.NewSampledProfile(geom, dist, seed)
	if err != nil {
		return nil, err
	}
	// The chip's "true" retention is what the silicon does; profiling must
	// not peek at the Profiled field, so reset it.
	chip.Profiled = append([]float64(nil), chip.True...)
	return Profile(chip, retention.ExpDecay{}, Options{})
}
