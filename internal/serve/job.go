package serve

import (
	"fmt"

	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/exp"
	"vrldram/internal/fleet"
	"vrldram/internal/profcache"
	"vrldram/internal/retention"
	"vrldram/internal/sim"
	"vrldram/internal/trace"
)

// SimSpec describes a single-scheduler simulation job: the named policy runs
// over the session's streamed trace on a bank of the given geometry. The
// zero values of Rows/Cols/Seed resolve to the paper's evaluation setup, so
// the service and the facade agree on defaults.
type SimSpec struct {
	Scheduler string  // "jedec", "raidr", "vrl", "vrl-access"
	Seed      int64   // retention-profile seed (default 42)
	Duration  float64 // simulated window (s); must be positive
	Rows      int     // bank rows (default paper bank)
	Cols      int     // bank columns (default paper bank)
}

// schedulerNames lists the accepted SimSpec.Scheduler values.
var schedulerNames = []string{"jedec", "raidr", "vrl", "vrl-access"}

// withDefaults resolves zero fields to the paper configuration.
func (s SimSpec) withDefaults() SimSpec {
	if s.Rows == 0 {
		s.Rows = device.PaperBank.Rows
	}
	if s.Cols == 0 {
		s.Cols = device.PaperBank.Cols
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	return s
}

// Validate reports the first unusable field (after default resolution).
func (s SimSpec) Validate() error {
	s = s.withDefaults()
	ok := false
	for _, n := range schedulerNames {
		if s.Scheduler == n {
			ok = true
		}
	}
	if !ok {
		return fmt.Errorf("serve: unknown scheduler %q", s.Scheduler)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("serve: duration must be positive, got %g", s.Duration)
	}
	return device.BankGeometry{Rows: s.Rows, Cols: s.Cols}.Validate()
}

// CampaignSpec describes an experiment-campaign job: the identified registry
// experiments run under the paper configuration with the given overrides
// (zero keeps the default).
type CampaignSpec struct {
	IDs      []string
	Seed     int64
	Duration float64
}

// withDefaults resolves an empty ID list to the whole registry in the
// paper's order, so "run everything" is persisted as a concrete,
// restart-stable experiment list.
func (c CampaignSpec) withDefaults() CampaignSpec {
	if len(c.IDs) == 0 {
		c.IDs = exp.IDs()
	}
	return c
}

// Validate resolves every experiment ID against the registry (after default
// resolution, so an empty list means the whole registry).
func (c CampaignSpec) Validate() error {
	c = c.withDefaults()
	for _, id := range c.IDs {
		if _, err := exp.Find(id); err != nil {
			return err
		}
	}
	return nil
}

// config maps the spec onto an experiment configuration.
func (c CampaignSpec) config(workers int) exp.Config {
	cfg := exp.DefaultWith(c.Seed, c.Duration)
	cfg.Workers = workers
	return cfg
}

// validateShard checks a JobShard submit blob: it must decode to a
// fleet.ShardSpec that is internally consistent with its own partition plan.
// Validation happens once at submit (so a bad shard is rejected while the
// client is still listening), and again inside the job run via
// fleet.DecodeShardSpec - the blob is the durable artifact, not the struct.
func validateShard(blob []byte) error {
	if len(blob) == 0 {
		return fmt.Errorf("serve: shard submit carries no shard spec")
	}
	_, err := fleet.DecodeShardSpec(blob)
	return err
}

// buildSim constructs the bank, scheduler, and base simulator options for a
// spec, resolving the retention profile and restore model through the given
// cache so concurrent sessions with the same spec share the expensive Monte
// Carlo construction. Construction is fully deterministic in the spec, which
// is what makes kill/restart recovery bit-identical: a restarted server
// rebuilds exactly the bank and scheduler the checkpoint was taken against.
func buildSim(spec SimSpec, cache *profcache.Cache) (*dram.Bank, core.Scheduler, sim.Options, error) {
	spec = spec.withDefaults()
	params := device.Default90nm()
	geom := device.BankGeometry{Rows: spec.Rows, Cols: spec.Cols}
	dist := retention.DefaultCellDistribution()

	profile, err := cache.Profile(geom, dist, spec.Seed)
	if err != nil {
		return nil, nil, sim.Options{}, err
	}
	restore, err := cache.PaperRestoreModel(params, geom)
	if err != nil {
		return nil, nil, sim.Options{}, err
	}
	var sched core.Scheduler
	switch spec.Scheduler {
	case "jedec":
		sched, err = core.NewJEDEC(params.TRetNom, restore)
	case "raidr":
		sched, err = core.NewRAIDR(profile, core.Config{Restore: restore})
	case "vrl":
		sched, err = core.NewVRL(profile, core.Config{Restore: restore})
	case "vrl-access":
		sched, err = core.NewVRLAccess(profile, core.Config{Restore: restore})
	default:
		err = fmt.Errorf("serve: unknown scheduler %q", spec.Scheduler)
	}
	if err != nil {
		return nil, nil, sim.Options{}, err
	}
	bank, err := dram.NewBank(profile, retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		return nil, nil, sim.Options{}, err
	}
	return bank, sched, sim.Options{Duration: spec.Duration, TCK: params.TCK}, nil
}

// RunLocal executes a SimSpec in-process against a trace source: the exact
// computation the server performs for a session, minus the wire and the
// durability machinery. The equivalence tests pin the remote path to this
// baseline, and a client can fall back to it when no server is reachable.
func RunLocal(spec SimSpec, src trace.Source) (sim.Stats, error) {
	if err := spec.Validate(); err != nil {
		return sim.Stats{}, err
	}
	var cache profcache.Cache
	bank, sched, opts, err := buildSim(spec, &cache)
	if err != nil {
		return sim.Stats{}, err
	}
	if src == nil {
		src = trace.Empty{}
	}
	return sim.Run(bank, sched, src, opts)
}
