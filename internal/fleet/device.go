package fleet

import (
	"context"
	"fmt"

	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/ecc"
	"vrldram/internal/fault"
	"vrldram/internal/guard"
	"vrldram/internal/profcache"
	"vrldram/internal/profiler"
	"vrldram/internal/retention"
	"vrldram/internal/scenario"
	"vrldram/internal/scrub"
	"vrldram/internal/sim"
)

// TCK returns the clock period every population member simulates under (the
// paper's 90nm device parameters): the denominator of the overhead sketch.
func (s Spec) TCK() float64 { return device.Default90nm().TCK }

// RunDevice simulates one population member and returns its statistics.
// Everything is rebuilt deterministically from (spec, dev): the retention
// profile from the device's own Monte Carlo seed, the scheduler from the
// PROFILED view, and the bank from the TRUE view derated to the device's
// operating temperature - so a hot device misbehaves behind the scheduler's
// back exactly the way fault.TemperatureExcursion models. Weak devices
// additionally carry a VRT process seeded per device; devices that drew a
// scenario from the spec's workload catalog decay under that composed
// stress schedule (with the weak-cell VRT folded in as one of its
// stressors, so overlapping modulations integrate exactly). Guard and
// scrub, when the spec enables them, wrap the scheduler stack the same way
// vrlfault's campaigns do. Retrying, hedging, or recomputing a device
// therefore always yields identical Stats.
func RunDevice(ctx context.Context, spec Spec, dev Device, cache *profcache.Cache) (sim.Stats, error) {
	bank, sched, opts, err := buildDevice(spec, dev, cache)
	if err != nil {
		return sim.Stats{}, err
	}
	return sim.RunContext(ctx, bank, sched, nil, opts)
}

// buildDevice constructs the bank, scheduler stack and run options of one
// population member (see RunDevice).
func buildDevice(spec Spec, dev Device, cache *profcache.Cache) (*dram.Bank, core.Scheduler, sim.Options, error) {
	var opts sim.Options
	spec = spec.WithDefaults()
	params := device.Default90nm()
	geom := device.BankGeometry{Rows: spec.Rows, Cols: spec.Cols}
	dist := retention.DefaultCellDistribution()

	profile, err := cache.Profile(geom, dist, dev.Seed)
	if err != nil {
		return nil, nil, opts, err
	}
	restore, err := cache.PaperRestoreModel(params, geom)
	if err != nil {
		return nil, nil, opts, err
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
		err = fmt.Errorf("fleet: unknown scheduler %q", spec.Scheduler)
	}
	if err != nil {
		return nil, nil, opts, err
	}
	// The scrubber's repair target: the guard when present, else the raw
	// scheduler (a policy without demote/promote hooks just ignores them).
	repairTarget := sched
	if spec.Guard {
		g, err := guard.New(sched, spec.Rows, guard.Config{Restore: restore})
		if err != nil {
			return nil, nil, opts, err
		}
		sched, repairTarget = g, g
	}

	// The bank obeys physics at the device's temperature; the scheduler only
	// ever sees the profiled (reference-temperature) values. Cooler devices
	// gain margin, hotter ones lose it.
	bankProf := profile
	tm := retention.DefaultTempModel()
	if dev.TempC != tm.RefC {
		bankProf, err = fault.TemperatureExcursion(profile, tm, dev.TempC)
		if err != nil {
			return nil, nil, opts, err
		}
	}
	bank, err := dram.NewBank(bankProf, retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		return nil, nil, opts, err
	}

	var env *scenario.Env
	if dev.Scenario.Name != "" {
		env, err = scenario.BuildEnv(dev.Scenario, spec.Duration, dev.ScenSeed)
		if err != nil {
			return nil, nil, opts, err
		}
	}
	if dev.Weak {
		vrt := fault.DefaultTransientWeakCells(dev.WeakSeed)
		if env != nil {
			// A bank runs one retention view, so the weak-cell telegraph
			// joins the scenario as a stressor: its draws come from its own
			// WeakSeed either way, and the Env integrates the overlap with
			// the other stressors exactly.
			env.Stressors = append(env.Stressors, scenario.VRTStressor{Label: "weak-cells", V: *vrt})
		} else if err := bank.SetVRT(vrt); err != nil {
			return nil, nil, opts, err
		}
	}
	opts = sim.Options{Duration: spec.Duration, TCK: params.TCK, Backend: spec.Backend}
	if env != nil {
		if err := bank.SetModulator(env); err != nil {
			return nil, nil, opts, err
		}
		opts.Scenario = env
	}

	if spec.Scrub {
		cls := ecc.DefaultClassifier()
		store, err := scrub.NewBankStore(bank, cls)
		if err != nil {
			return nil, nil, opts, err
		}
		scr, err := scrub.New(store, scrub.Config{
			Sched:       repairTarget,
			SweepPeriod: spec.ScrubSweep,
			Spares:      spec.Spares,
			Reprofile: func(row int) (float64, error) {
				return profiler.ProfileRow(bankProf, retention.ExpDecay{}, row, profiler.Options{})
			},
		})
		if err != nil {
			return nil, nil, opts, err
		}
		opts.ECC = &cls
		opts.Scrub = scr
	}
	return bank, sched, opts, nil
}
