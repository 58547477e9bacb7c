package checkpoint

import (
	"reflect"
	"testing"

	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/retention"
	"vrldram/internal/scenario"
	"vrldram/internal/sim"
)

// scenarioHarness is a smaller sibling of the main resume harness: the full
// scenario x scheduler grid runs 24 baselines, so each one uses a 256-row
// bank and a quarter-window run.
type scenarioHarness struct {
	geom    device.BankGeometry
	profile *retention.BankProfile
	rm      core.RestoreModel
	opts    sim.Options
}

func newScenarioHarness(t *testing.T) *scenarioHarness {
	t.Helper()
	p := device.Default90nm()
	geom := device.BankGeometry{Rows: 256, Cols: 8}
	prof, err := retention.NewSampledProfile(geom, retention.DefaultCellDistribution(), 11)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := core.PaperRestoreModel(p, geom)
	if err != nil {
		t.Fatal(err)
	}
	return &scenarioHarness{
		geom:    geom,
		profile: prof,
		rm:      rm,
		opts:    sim.Options{Duration: 0.192, TCK: p.TCK},
	}
}

// run builds a fresh bank wired to a freshly built env of the scenario and
// simulates it; every invocation reconstructs the whole stack, which is the
// contract a resumed process must honor.
func (h *scenarioHarness) run(t *testing.T, scen, sched string, opts sim.Options) sim.Stats {
	t.Helper()
	env, err := scenario.BuildEnv(scenario.Ref{Name: scen}, h.opts.Duration, 23)
	if err != nil {
		t.Fatal(err)
	}
	bank, err := dram.NewBank(h.profile, retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}
	if err := bank.SetModulator(env); err != nil {
		t.Fatal(err)
	}
	opts.Scenario = env
	// Reuse the main harness's scheduler table via a thin adapter.
	mh := &harness{geom: h.geom, profile: h.profile, rm: h.rm}
	st, err := sim.Run(bank, mh.sched(t, sched), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestScenarioResumeEquivalence extends the keystone resume property to the
// scenario layer: for every named scenario in the catalog and every
// scheduler stack, a run interrupted at a checkpoint and resumed from the
// serialized snapshot produces bit-identical Stats - the stressor schedule
// picks up mid-stream exactly where the killed run left it.
func TestScenarioResumeEquivalence(t *testing.T) {
	h := newScenarioHarness(t)
	for _, scen := range scenario.Names() {
		for _, sched := range schedulers {
			t.Run(scen+"/"+sched, func(t *testing.T) {
				var snaps []*sim.Checkpoint
				opts := h.opts
				opts.CheckpointEvery = opts.Duration / 8
				opts.CheckpointSink = func(cp *sim.Checkpoint) error {
					snaps = append(snaps, roundTrip(t, cp))
					return nil
				}
				baseline := h.run(t, scen, sched, opts)
				if len(snaps) < 4 {
					t.Fatalf("only %d snapshots taken", len(snaps))
				}
				for _, cp := range snaps {
					if cp.ScenarioState == nil {
						t.Fatal("checkpoint carries no scenario state")
					}
				}
				for _, i := range []int{0, len(snaps) / 2, len(snaps) - 1} {
					ropts := h.opts
					ropts.Resume = snaps[i]
					resumed := h.run(t, scen, sched, ropts)
					if !reflect.DeepEqual(resumed, baseline) {
						t.Errorf("resume from snapshot %d (tick %d):\n got %+v\nwant %+v",
							i, snaps[i].Time, resumed, baseline)
					}
				}
			})
		}
	}
}

// TestScenarioResumeRejectsMismatch pins the resume-time validation around
// the scenario blob: a snapshot taken under a scenario must not resume
// without one, under a different scenario, or (scenario-less) with one.
func TestScenarioResumeRejectsMismatch(t *testing.T) {
	h := newScenarioHarness(t)
	var snaps []*sim.Checkpoint
	opts := h.opts
	opts.CheckpointEvery = opts.Duration / 4
	opts.CheckpointSink = func(cp *sim.Checkpoint) error {
		snaps = append(snaps, roundTrip(t, cp))
		return nil
	}
	h.run(t, "kitchen-sink", "vrl", opts)
	cp := snaps[0]

	mh := &harness{geom: h.geom, profile: h.profile, rm: h.rm}
	bank := func(t *testing.T) *dram.Bank {
		b, err := dram.NewBank(h.profile, retention.ExpDecay{}, retention.PatternAllZeros)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Scenario snapshot, no scenario in the resuming run.
	bare := h.opts
	bare.Resume = cp
	if _, err := sim.Run(bank(t), mh.sched(t, "vrl"), nil, bare); err == nil {
		t.Fatal("scenario snapshot must not resume without a scenario")
	}

	// Different scenario in the resuming run.
	other, err := scenario.BuildEnv(scenario.Ref{Name: "diurnal"}, h.opts.Duration, 23)
	if err != nil {
		t.Fatal(err)
	}
	wrong := h.opts
	wrong.Resume = cp
	wrong.Scenario = other
	b := bank(t)
	if err := b.SetModulator(other); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(b, mh.sched(t, "vrl"), nil, wrong); err == nil {
		t.Fatal("snapshot must not resume under a different scenario")
	}

	// Scenario-less snapshot, scenario in the resuming run.
	var plain []*sim.Checkpoint
	popts := h.opts
	popts.CheckpointEvery = popts.Duration / 4
	popts.CheckpointSink = func(cp *sim.Checkpoint) error {
		plain = append(plain, roundTrip(t, cp))
		return nil
	}
	if _, err := sim.Run(bank(t), mh.sched(t, "vrl"), nil, popts); err != nil {
		t.Fatal(err)
	}
	withScen := h.opts
	withScen.Resume = plain[0]
	withScen.Scenario = other
	b2 := bank(t)
	if err := b2.SetModulator(other); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(b2, mh.sched(t, "vrl"), nil, withScen); err == nil {
		t.Fatal("scenario-less snapshot must not resume under a scenario")
	}
}
