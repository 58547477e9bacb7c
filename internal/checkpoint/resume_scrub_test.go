package checkpoint

import (
	"reflect"
	"testing"

	"vrldram/internal/core"
	"vrldram/internal/dram"
	"vrldram/internal/ecc"
	"vrldram/internal/fault"
	"vrldram/internal/guard"
	"vrldram/internal/profiler"
	"vrldram/internal/retention"
	"vrldram/internal/scrub"
	"vrldram/internal/sim"
)

// scrubbedStack builds the full self-healing pipeline from scratch: a bank
// under VRT, a guarded VRL scheduler as the repair target, and a patrol
// scrubber reading through the SECDED classifier. Every call returns fresh
// instances, which is exactly what a resume must be able to start from.
func (h *harness) scrubbedStack(t *testing.T, profile *retention.BankProfile) (*dram.Bank, core.Scheduler, *scrub.Scrubber) {
	t.Helper()
	b, err := dram.NewBank(profile, retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}
	v := retention.DefaultVRT()
	if err := b.SetVRT(&v); err != nil {
		t.Fatal(err)
	}
	s, err := core.NewVRL(profile, core.Config{Restore: h.rm})
	if err != nil {
		t.Fatal(err)
	}
	g, err := guard.New(s, h.geom.Rows, guard.Config{Restore: h.rm})
	if err != nil {
		t.Fatal(err)
	}
	store, err := scrub.NewBankStore(b, ecc.DefaultClassifier())
	if err != nil {
		t.Fatal(err)
	}
	scr, err := scrub.New(store, scrub.Config{
		Sched:  g,
		Spares: 64,
		Reprofile: func(row int) (float64, error) {
			return profiler.ProfileRow(profile, retention.ExpDecay{}, row, profiler.Options{})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b, g, scr
}

// TestResumeEquivalenceScrubbed extends the keystone resume property to the
// richest stack this repository can assemble: guarded VRL + ECC + online
// patrol scrubber, over a mis-binned profile with VRT active, so the repair
// pipeline (demotions, re-profiles, remaps) has real work whose state must
// survive the checkpoint. Resuming from any kill point must reproduce the
// uninterrupted Stats - including every scrub counter - bit for bit, and
// the spare-row remap table must come back intact.
func TestResumeEquivalenceScrubbed(t *testing.T) {
	h := newHarness(t)
	bad, _, err := fault.MisBinProfile(h.profile, 0.05, retention.RAIDRBins, 11)
	if err != nil {
		t.Fatal(err)
	}
	cls := ecc.DefaultClassifier()

	var snaps []*sim.Checkpoint
	opts := h.opts
	opts.ECC = &cls
	opts.CheckpointEvery = opts.Duration / 16
	opts.CheckpointSink = func(cp *sim.Checkpoint) error {
		snaps = append(snaps, roundTrip(t, cp))
		return nil
	}
	bank, sched, scr := h.scrubbedStack(t, bad)
	opts.Scrub = scr
	baseline, err := sim.Run(bank, sched, h.src(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 10 {
		t.Fatalf("only %d snapshots taken", len(snaps))
	}
	// The run must actually exercise the pipeline, or the property is vacuous.
	if baseline.Scrub.RowsPatrolled == 0 {
		t.Fatal("patrol never ran")
	}
	if baseline.Scrub.Corrected == 0 && baseline.Scrub.Uncorrectable == 0 {
		t.Fatal("fault injection produced no ECC events; the scrub state is trivial")
	}
	for i, cp := range snaps {
		if len(cp.ScrubState) == 0 {
			t.Fatalf("snapshot %d carries no scrubber state", i)
		}
	}
	wantRemapped := scr.Remapped()

	for _, i := range []int{0, len(snaps) / 2, len(snaps) - 1} {
		ropts := h.opts
		ropts.ECC = &cls
		rbank, rsched, rscr := h.scrubbedStack(t, bad)
		ropts.Scrub = rscr
		ropts.Resume = snaps[i]
		resumed, err := sim.Run(rbank, rsched, h.src(), ropts)
		if err != nil {
			t.Fatalf("resume from snapshot %d (tick %d): %v", i, snaps[i].Time, err)
		}
		if !reflect.DeepEqual(resumed, baseline) {
			t.Errorf("resume from snapshot %d (tick %d):\n got %+v\nwant %+v", i, snaps[i].Time, resumed, baseline)
		}
		if got := rscr.Remapped(); !reflect.DeepEqual(got, wantRemapped) {
			t.Errorf("resume from snapshot %d: remap table %v, want %v", i, got, wantRemapped)
		}
	}
}

// TestResumeRejectsScrubMismatch pins the resume-time validation around the
// scrubber: a scrubbed snapshot cannot continue without a scrubber, and an
// unscrubbed snapshot cannot suddenly gain one.
func TestResumeRejectsScrubMismatch(t *testing.T) {
	h := newHarness(t)
	cls := ecc.DefaultClassifier()

	capture := func(withScrub bool) *sim.Checkpoint {
		var snaps []*sim.Checkpoint
		opts := h.opts
		opts.ECC = &cls
		opts.CheckpointEvery = opts.Duration / 4
		opts.CheckpointSink = func(cp *sim.Checkpoint) error {
			snaps = append(snaps, roundTrip(t, cp))
			return nil
		}
		bank, sched, scr := h.scrubbedStack(t, h.profile)
		if withScrub {
			opts.Scrub = scr
		}
		if _, err := sim.Run(bank, sched, h.src(), opts); err != nil {
			t.Fatal(err)
		}
		return snaps[0]
	}

	scrubbed := capture(true)
	ropts := h.opts
	ropts.ECC = &cls
	ropts.Resume = scrubbed
	bank, sched, _ := h.scrubbedStack(t, h.profile)
	if _, err := sim.Run(bank, sched, h.src(), ropts); err == nil {
		t.Fatal("scrubbed snapshot resumed without a scrubber")
	}

	plain := capture(false)
	ropts = h.opts
	ropts.ECC = &cls
	bank, sched, scr := h.scrubbedStack(t, h.profile)
	ropts.Scrub = scr
	ropts.Resume = plain
	if _, err := sim.Run(bank, sched, h.src(), ropts); err == nil {
		t.Fatal("unscrubbed snapshot resumed with a scrubber attached")
	}
}
