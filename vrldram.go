// Package vrldram is the public API of the VRL-DRAM reproduction: the
// variable-refresh-latency DRAM mechanism of Das, Hassan and Mutlu (DAC
// 2018), together with every substrate its evaluation needs - the
// circuit-level analytical refresh model, a transient circuit simulator,
// retention profiling, a DRAM bank charge model, RAIDR/VRL/VRL-Access
// refresh schedulers, synthetic PARSEC-style memory traces, and power/area
// models.
//
// Three entry points:
//
//   - NewSystem builds a simulated bank + controller and runs refresh
//     scheduling experiments programmatically (see examples/quickstart);
//   - RunExperiment regenerates any table or figure of the paper by ID
//     (see cmd/vrlexp and EXPERIMENTS.md);
//   - the lower-level building blocks live in internal/ and are re-exported
//     here only through the System and experiment APIs.
package vrldram

import (
	"fmt"
	"io"

	"vrldram/internal/circuit/analytic"
	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/ecc"
	"vrldram/internal/exp"
	"vrldram/internal/power"
	"vrldram/internal/retention"
	"vrldram/internal/sim"
	"vrldram/internal/trace"
)

// SchedulerKind names a refresh scheduling policy.
type SchedulerKind string

// The supported refresh scheduling policies.
const (
	SchedJEDEC     SchedulerKind = "jedec"
	SchedRAIDR     SchedulerKind = "raidr"
	SchedVRL       SchedulerKind = "vrl"
	SchedVRLAccess SchedulerKind = "vrl-access"
)

// SchedulerKinds lists all policies in evaluation order.
var SchedulerKinds = []SchedulerKind{SchedJEDEC, SchedRAIDR, SchedVRL, SchedVRLAccess}

// Options configures a System. The zero value reproduces the paper's
// evaluation setup (8192x32 bank at 90 nm, calibrated retention
// distribution, nbits=2 counters, exponential leakage).
type Options struct {
	Rows, Cols int     // bank geometry (default 8192x32)
	Seed       int64   // deterministic seed for profile and traces (default 42)
	Guardband  float64 // scheduling charge guardband (default core.ChargeGuardband)
	NBits      int     // counter width (default 2)
	Decay      string  // "exponential" (default) or "linear"
	Pattern    string  // stored data pattern: "all-0" (default), "all-1", "alternating", "random"
}

func (o Options) withDefaults() Options {
	if o.Rows == 0 {
		o.Rows = device.PaperBank.Rows
	}
	if o.Cols == 0 {
		o.Cols = device.PaperBank.Cols
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Decay == "" {
		o.Decay = "exponential"
	}
	if o.Pattern == "" {
		o.Pattern = "all-0"
	}
	return o
}

// System is a simulated DRAM bank plus the retention profile and refresh
// machinery of the paper's evaluation.
type System struct {
	opts    Options
	params  device.Params
	geom    device.BankGeometry
	profile *retention.BankProfile
	restore core.RestoreModel
	decay   retention.DecayModel
	pattern retention.Pattern
	pm      power.Model
}

// NewSystem constructs a system from options; see Options for defaults.
func NewSystem(o Options) (*System, error) {
	o = o.withDefaults()
	params := device.Default90nm()
	geom := device.BankGeometry{Rows: o.Rows, Cols: o.Cols}
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	decay, err := retention.DecayByName(o.Decay)
	if err != nil {
		return nil, err
	}
	pattern, err := patternByName(o.Pattern)
	if err != nil {
		return nil, err
	}
	dist := retention.DefaultCellDistribution()
	var profile *retention.BankProfile
	if geom == device.PaperBank {
		profile, err = retention.NewPaperProfile(dist, o.Seed)
	} else {
		profile, err = retention.NewSampledProfile(geom, dist, o.Seed)
	}
	if err != nil {
		return nil, err
	}
	restore, err := core.PaperRestoreModel(params, geom)
	if err != nil {
		return nil, err
	}
	return &System{
		opts:    o,
		params:  params,
		geom:    geom,
		profile: profile,
		restore: restore,
		decay:   decay,
		pattern: pattern,
		pm:      power.Default90nm(params, geom),
	}, nil
}

func patternByName(name string) (retention.Pattern, error) {
	for _, p := range retention.Patterns {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("vrldram: unknown data pattern %q", name)
}

// schedConfig builds the core scheduler configuration from the options.
func (s *System) schedConfig() core.Config {
	return core.Config{
		Restore:   s.restore,
		Decay:     s.decay,
		Guardband: s.opts.Guardband,
		NBits:     s.opts.NBits,
	}
}

// newScheduler instantiates a policy by kind.
func (s *System) newScheduler(kind SchedulerKind) (core.Scheduler, error) {
	switch kind {
	case SchedJEDEC:
		return core.NewJEDEC(s.params.TRetNom, s.restore)
	case SchedRAIDR:
		return core.NewRAIDR(s.profile, s.schedConfig())
	case SchedVRL:
		return core.NewVRL(s.profile, s.schedConfig())
	case SchedVRLAccess:
		return core.NewVRLAccess(s.profile, s.schedConfig())
	default:
		return nil, fmt.Errorf("vrldram: unknown scheduler %q", kind)
	}
}

// Stats reports one simulation run.
type Stats struct {
	Scheduler        string
	Duration         float64 // s
	FullRefreshes    int64
	PartialRefreshes int64
	BusyCycles       int64
	Accesses         int64
	Violations       int
	OverheadFraction float64 // fraction of time the bank refreshed
	RefreshEnergy    float64 // J over the run
}

// Access is one trace record: a read or write activating a row at a time.
type Access struct {
	Time  float64 // seconds from start
	Row   int
	Write bool
}

// Simulate runs the named policy for the given duration while replaying the
// accesses (which must be time-sorted; pass nil for a refresh-only run).
// For a cancellable or crash-safe (checkpointed, resumable) run, see
// SimulateControlled.
func (s *System) Simulate(kind SchedulerKind, accesses []Access, duration float64) (Stats, error) {
	st, err := s.SimulateControlled(kind, accesses, duration, RunControl{})
	if err != nil {
		return Stats{}, err
	}
	return st, nil
}

// GenerateTrace synthesizes the named benchmark's accesses for this system's
// bank over the duration (see Benchmarks for names).
func (s *System) GenerateTrace(benchmark string, duration float64) ([]Access, error) {
	spec, err := trace.FindBenchmark(benchmark)
	if err != nil {
		return nil, err
	}
	recs, err := spec.Generate(s.geom.Rows, duration, s.opts.Seed)
	if err != nil {
		return nil, err
	}
	out := make([]Access, len(recs))
	for i, r := range recs {
		out[i] = Access{Time: r.Time, Row: r.Row, Write: r.Op == trace.Write}
	}
	return out, nil
}

// MPRSFHistogram returns how many rows were assigned each MPRSF value under
// the VRL policy: index i counts rows with MPRSF == i.
func (s *System) MPRSFHistogram() ([]int, error) {
	sched, err := s.newScheduler(SchedVRL)
	if err != nil {
		return nil, err
	}
	return core.MPRSFHistogram(sched, s.geom.Rows), nil
}

// BinCounts returns the RAIDR refresh-period binning of the system's bank:
// refresh period (seconds) to row count.
func (s *System) BinCounts() (map[float64]int, error) {
	return s.profile.BinCounts(retention.RAIDRBins)
}

// RefreshLatencies returns the scheduled partial and full refresh latencies
// in DRAM cycles (the paper's tau_partial = 11 and tau_full = 19).
func (s *System) RefreshLatencies() (partial, full int) {
	return s.restore.PartialCycles, s.restore.FullCycles
}

// TRFCBreakdown is the analytical model's latency decomposition of one
// refresh operation (paper Eq. 13).
type TRFCBreakdown struct {
	TauEq, TauPre, TauPost, TauFixed float64 // seconds
	TotalCycles                      int
	RestoreAlpha                     float64
}

// ModelTRFC evaluates the analytical model for a refresh restoring a cell
// from startFrac to targetFrac of full charge on this system's geometry.
func (s *System) ModelTRFC(startFrac, targetFrac float64) (TRFCBreakdown, error) {
	m, err := analytic.New(s.params, s.geom)
	if err != nil {
		return TRFCBreakdown{}, err
	}
	b, err := m.TRFC(startFrac, targetFrac)
	if err != nil {
		return TRFCBreakdown{}, err
	}
	return TRFCBreakdown{
		TauEq: b.TauEq, TauPre: b.TauPre, TauPost: b.TauPost, TauFixed: b.TauFixed,
		TotalCycles: b.TRFCCycles, RestoreAlpha: b.Alpha,
	}, nil
}

// RestorePoint is one sample of the refresh restore trajectory (paper
// Figure 1a).
type RestorePoint struct {
	FracTRFC   float64 // fraction of the full refresh cycle time elapsed
	FracCharge float64 // fraction of full charge on the cell
}

// RestoreCurve samples the charge-restoration trajectory of a full refresh
// of a cell that had decayed to startFrac of full charge, at n points over
// one tRFC (paper Figure 1a).
func (s *System) RestoreCurve(startFrac float64, n int) ([]RestorePoint, error) {
	m, err := analytic.New(s.params, s.geom)
	if err != nil {
		return nil, err
	}
	pts, err := m.RestoreCurve(startFrac, n)
	if err != nil {
		return nil, err
	}
	out := make([]RestorePoint, len(pts))
	for i, p := range pts {
		out[i] = RestorePoint{FracTRFC: p.FracTRFC, FracCharge: p.FracCharge}
	}
	return out, nil
}

// Benchmarks lists the synthetic workload names (13 PARSEC-3.0 benchmarks
// plus bgsave, the paper's Figure 4 set).
func Benchmarks() []string {
	specs := trace.PARSEC()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// ExperimentInfo describes one reproducible paper artifact.
type ExperimentInfo struct {
	ID    string
	Title string
}

// Experiments lists every table and figure reproduction, in the paper's
// order.
func Experiments() []ExperimentInfo {
	out := make([]ExperimentInfo, len(exp.Registry))
	for i, e := range exp.Registry {
		out[i] = ExperimentInfo{ID: e.ID, Title: e.Title}
	}
	return out
}

// RunExperiment regenerates the identified table or figure with the default
// (paper) configuration and renders it to w.
func RunExperiment(id string, w io.Writer) error {
	return RunExperimentSeeded(id, w, 0, 0)
}

// RunExperimentSeeded is RunExperiment with an explicit seed and simulation
// window (zero values keep the defaults).
func RunExperimentSeeded(id string, w io.Writer, seed int64, duration float64) error {
	res, err := runSeeded(id, seed, duration)
	if err != nil {
		return err
	}
	return res.Fprint(w)
}

// RunExperimentCSV renders the experiment as CSV instead of an aligned
// table.
func RunExperimentCSV(id string, w io.Writer, seed int64, duration float64) error {
	res, err := runSeeded(id, seed, duration)
	if err != nil {
		return err
	}
	return res.FprintCSV(w)
}

func runSeeded(id string, seed int64, duration float64) (*exp.Result, error) {
	e, err := exp.Find(id)
	if err != nil {
		return nil, err
	}
	return e.Run(exp.DefaultWith(seed, duration))
}

// geomOf builds a bank geometry (facade-internal helper).
func geomOf(rows, cols int) device.BankGeometry {
	return device.BankGeometry{Rows: rows, Cols: cols}
}

// simOptions builds simulator options for the system (facade-internal).
func simOptions(s *System, duration float64) sim.Options {
	return sim.Options{Duration: duration, TCK: s.params.TCK}
}

// runSim forwards to the internal simulator (facade-internal).
func runSim(bank *dram.Bank, sched core.Scheduler, src trace.Source, opts sim.Options) (sim.Stats, error) {
	return sim.Run(bank, sched, src, opts)
}

// defaultClassifier forwards the ECC charge classifier (facade-internal).
func defaultClassifier() ecc.ChargeClassifier { return ecc.DefaultClassifier() }
