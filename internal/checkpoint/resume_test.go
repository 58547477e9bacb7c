package checkpoint

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/guard"
	"vrldram/internal/retention"
	"vrldram/internal/sim"
	"vrldram/internal/trace"
)

// harness builds identically-configured banks, schedulers, and trace
// sources on demand - the contract a resumed run must honor.
type harness struct {
	geom    device.BankGeometry
	profile *retention.BankProfile
	rm      core.RestoreModel
	recs    []trace.Record
	opts    sim.Options
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	p := device.Default90nm()
	geom := device.BankGeometry{Rows: 512, Cols: 32}
	prof, err := retention.NewSampledProfile(geom, retention.DefaultCellDistribution(), 7)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := core.PaperRestoreModel(p, geom)
	if err != nil {
		t.Fatal(err)
	}
	// A deterministic access stream touching rows cyclically, so VRL-Access
	// counter resets and the trace-position bookkeeping both matter.
	const nrec = 4000
	recs := make([]trace.Record, nrec)
	for i := range recs {
		op := trace.Read
		if i%3 == 0 {
			op = trace.Write
		}
		recs[i] = trace.Record{Time: float64(i) * 0.768 / nrec, Op: op, Row: (i * 37) % geom.Rows}
	}
	return &harness{
		geom:    geom,
		profile: prof,
		rm:      rm,
		recs:    recs,
		opts:    sim.Options{Duration: 0.768, TCK: p.TCK},
	}
}

func (h *harness) bank(t *testing.T) *dram.Bank {
	t.Helper()
	b, err := dram.NewBank(h.profile, retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// schedulers lists the stack variants the keystone property must hold for.
var schedulers = []string{"raidr", "vrl", "vrl-access", "guarded-vrl"}

func (h *harness) sched(t *testing.T, name string) core.Scheduler {
	t.Helper()
	cfg := core.Config{Restore: h.rm}
	var (
		s   core.Scheduler
		err error
	)
	switch name {
	case "raidr":
		s, err = core.NewRAIDR(h.profile, cfg)
	case "vrl":
		s, err = core.NewVRL(h.profile, cfg)
	case "vrl-access":
		s, err = core.NewVRLAccess(h.profile, cfg)
	case "guarded-vrl":
		s, err = core.NewVRL(h.profile, cfg)
		if err == nil {
			s, err = guard.New(s, h.geom.Rows, guard.Config{Restore: h.rm})
		}
	default:
		t.Fatalf("unknown scheduler %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (h *harness) src() trace.Source { return trace.NewSliceSource(h.recs) }

// roundTrip serializes a checkpoint through the on-disk container and back,
// so every resume in these tests exercises the codec's bit-exactness too.
func roundTrip(t *testing.T, cp *sim.Checkpoint) *sim.Checkpoint {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSim(&buf, cp); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSim(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestResumeEquivalence is the keystone: for every scheduler stack,
// interrupting a run at an arbitrary checkpoint and resuming from the
// serialized snapshot yields Stats identical - including float
// accumulators, bit for bit - to the uninterrupted run.
func TestResumeEquivalence(t *testing.T) {
	h := newHarness(t)
	for _, name := range schedulers {
		t.Run(name, func(t *testing.T) {
			var snaps []*sim.Checkpoint
			opts := h.opts
			opts.CheckpointEvery = opts.Duration / 16
			opts.CheckpointSink = func(cp *sim.Checkpoint) error {
				snaps = append(snaps, roundTrip(t, cp))
				return nil
			}
			baseline, err := sim.Run(h.bank(t), h.sched(t, name), h.src(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(snaps) < 10 {
				t.Fatalf("only %d snapshots taken", len(snaps))
			}
			// Kill points: right after the first snapshot, mid-run, and at
			// the last snapshot before completion.
			for _, i := range []int{0, len(snaps) / 2, len(snaps) - 1} {
				ropts := h.opts
				ropts.Resume = snaps[i]
				resumed, err := sim.Run(h.bank(t), h.sched(t, name), h.src(), ropts)
				if err != nil {
					t.Fatalf("resume from snapshot %d (tick %d): %v", i, snaps[i].Time, err)
				}
				if !reflect.DeepEqual(resumed, baseline) {
					t.Errorf("resume from snapshot %d (tick %d):\n got %+v\nwant %+v", i, snaps[i].Time, resumed, baseline)
				}
			}
		})
	}
}

// TestCancelWritesFinalSnapshotAndResumes models the CLI kill path: cancel
// the context mid-run, receive the final snapshot the simulator emits on
// the way out, and resume from it to the uninterrupted run's exact Stats.
func TestCancelWritesFinalSnapshotAndResumes(t *testing.T) {
	h := newHarness(t)
	for _, name := range schedulers {
		t.Run(name, func(t *testing.T) {
			baseline, err := sim.Run(h.bank(t), h.sched(t, name), h.src(), h.opts)
			if err != nil {
				t.Fatal(err)
			}

			ctx, cancel := context.WithCancel(context.Background())
			var last *sim.Checkpoint
			opts := h.opts
			opts.CheckpointEvery = opts.Duration / 32
			opts.CheckpointSink = func(cp *sim.Checkpoint) error {
				last = roundTrip(t, cp)
				if len(cp.Events) > 0 && cp.Time > dram.Ticks(0.2) {
					cancel() // kill mid-run, at an arbitrary point
				}
				return nil
			}
			st, err := sim.RunContext(ctx, h.bank(t), h.sched(t, name), h.src(), opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if st.FullRefreshes >= baseline.FullRefreshes {
				t.Fatal("cancelled run was not actually partial")
			}
			if last == nil {
				t.Fatal("no final snapshot delivered")
			}

			ropts := h.opts
			ropts.Resume = last
			resumed, err := sim.Run(h.bank(t), h.sched(t, name), h.src(), ropts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(resumed, baseline) {
				t.Errorf("resume after cancel:\n got %+v\nwant %+v", resumed, baseline)
			}
		})
	}
}

// TestResumeRejectsMismatchedRun verifies the resume-time validation: a
// snapshot must not silently continue under a different scheduler,
// duration, or bank shape.
func TestResumeRejectsMismatchedRun(t *testing.T) {
	h := newHarness(t)
	var snaps []*sim.Checkpoint
	opts := h.opts
	opts.CheckpointEvery = opts.Duration / 4
	opts.CheckpointSink = func(cp *sim.Checkpoint) error {
		snaps = append(snaps, roundTrip(t, cp))
		return nil
	}
	if _, err := sim.Run(h.bank(t), h.sched(t, "vrl"), h.src(), opts); err != nil {
		t.Fatal(err)
	}
	cp := snaps[0]

	badSched := h.opts
	badSched.Resume = cp
	if _, err := sim.Run(h.bank(t), h.sched(t, "raidr"), h.src(), badSched); err == nil {
		t.Fatal("resume under a different scheduler must fail")
	}

	badDur := h.opts
	badDur.Duration = 0.5
	badDur.Resume = cp
	if _, err := sim.Run(h.bank(t), h.sched(t, "vrl"), h.src(), badDur); err == nil {
		t.Fatal("resume with a different duration must fail")
	}

	shortTrace := h.opts
	shortTrace.Resume = cp
	short := trace.NewSliceSource(h.recs[:10])
	if _, err := sim.Run(h.bank(t), h.sched(t, "vrl"), short, shortTrace); err == nil {
		t.Fatal("resume with a shorter trace must fail")
	}
}

// TestCheckpointRequiresSnapshotter: a stack with an un-snapshotable layer
// must be rejected up front, not die at the first checkpoint boundary.
func TestCheckpointRequiresSnapshotter(t *testing.T) {
	h := newHarness(t)
	opts := h.opts
	opts.CheckpointEvery = 0.1
	opts.CheckpointSink = func(*sim.Checkpoint) error { return nil }
	sched := opaqueScheduler{h.sched(t, "vrl")}
	_, err := sim.Run(h.bank(t), sched, nil, opts)
	if err == nil || !strings.Contains(err.Error(), "Snapshotter") {
		t.Fatalf("err = %v, want a Snapshotter capability error", err)
	}
}

// opaqueScheduler hides every optional capability of the wrapped scheduler.
type opaqueScheduler struct{ inner core.Scheduler }

func (o opaqueScheduler) Name() string                       { return o.inner.Name() }
func (o opaqueScheduler) Period(row int) float64             { return o.inner.Period(row) }
func (o opaqueScheduler) RefreshOp(r int, t float64) core.Op { return o.inner.RefreshOp(r, t) }
func (o opaqueScheduler) OnAccess(r int, t float64)          { o.inner.OnAccess(r, t) }
func (o opaqueScheduler) MPRSF(row int) int                  { return o.inner.MPRSF(row) }

// TestSnapshotterRoundTripStandalone pins the core.Snapshotter contract on
// each scheduler directly: state survives a snapshot/restore into a fresh
// instance, and shape mismatches are rejected.
func TestSnapshotterRoundTripStandalone(t *testing.T) {
	h := newHarness(t)
	for _, name := range schedulers {
		t.Run(name, func(t *testing.T) {
			a := h.sched(t, name).(core.Snapshotter)
			// Mutate some state through the public surface.
			as := a.(core.Scheduler)
			for i := 0; i < 200; i++ {
				as.RefreshOp(i%h.geom.Rows, float64(i)*0.001)
			}
			blob, err := a.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			b := h.sched(t, name).(core.Snapshotter)
			if err := b.RestoreState(blob); err != nil {
				t.Fatal(err)
			}
			blob2, err := b.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, blob2) {
				t.Fatal("snapshot -> restore -> snapshot is not a fixed point")
			}
			if err := b.RestoreState([]byte("garbage")); err == nil {
				t.Fatal("garbage blob must be rejected")
			}
		})
	}
	// Cross-policy blobs must be rejected by tag.
	vrl := h.sched(t, "vrl").(core.Snapshotter)
	raidr := h.sched(t, "raidr").(core.Snapshotter)
	blob, err := vrl.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if err := raidr.RestoreState(blob); err == nil {
		t.Fatal("RAIDR must reject a VRL blob")
	}
}

// TestStaggeredResumePointsProperty resumes from EVERY snapshot of one run
// (a denser sweep than the keystone's three points) for the guarded stack,
// whose state machine is the richest.
func TestStaggeredResumePointsProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("dense resume sweep")
	}
	h := newHarness(t)
	var snaps []*sim.Checkpoint
	opts := h.opts
	opts.CheckpointEvery = opts.Duration / 24
	opts.CheckpointSink = func(cp *sim.Checkpoint) error {
		snaps = append(snaps, roundTrip(t, cp))
		return nil
	}
	baseline, err := sim.Run(h.bank(t), h.sched(t, "guarded-vrl"), h.src(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, cp := range snaps {
		ropts := h.opts
		ropts.Resume = cp
		resumed, err := sim.Run(h.bank(t), h.sched(t, "guarded-vrl"), h.src(), ropts)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if !reflect.DeepEqual(resumed, baseline) {
			t.Fatalf("snapshot %d (tick %d) diverged:\n got %+v\nwant %+v", i, cp.Time, resumed, baseline)
		}
	}
	if baseline.Guard == (core.GuardStats{}) {
		t.Fatal("guarded baseline recorded no guard activity; test exercises nothing")
	}
}
