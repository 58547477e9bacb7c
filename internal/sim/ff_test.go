package sim

import (
	"bytes"
	"context"
	"encoding/gob"
	"flag"
	"fmt"
	"math"
	"math/big"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/ecc"
	"vrldram/internal/fault"
	"vrldram/internal/retention"
	"vrldram/internal/scenario"
	"vrldram/internal/scrub"
	"vrldram/internal/trace"
)

// newFFHarness builds the backend harness with ECC classification off - the
// one static ineligibility the matrix would otherwise pin every run to, so
// the fast-forward engine can actually engage. Everything else (trace,
// checkpoints, scenarios, scrub) stays: those are per-window horizon caps,
// and the equivalence must hold across all of them.
func newFFHarness(t *testing.T, seed int64) *backendHarness {
	t.Helper()
	h := newBackendHarness(t, seed)
	h.opts.ECC = nil
	return h
}

// compareFF runs the same configuration on the scalar reference and the
// auto backend (fast-forward eligible) and demands bit-identical Stats and bit-identical
// serialized checkpoints.
func (h *backendHarness) compareFF(t *testing.T, schedName, scenName string, withScrub bool) {
	t.Helper()
	scalarStats, scalarBlobs := h.runOnce(t, schedName, scenName, withScrub, BackendScalar)
	ffStats, ffBlobs := h.runOnce(t, schedName, scenName, withScrub, BackendAuto)
	if !reflect.DeepEqual(scalarStats, ffStats) {
		t.Fatalf("stats diverged:\nscalar:       %+v\nfast-forward: %+v", scalarStats, ffStats)
	}
	if len(scalarBlobs) != len(ffBlobs) {
		t.Fatalf("checkpoint counts diverged: %d vs %d", len(scalarBlobs), len(ffBlobs))
	}
	if len(scalarBlobs) == 0 {
		t.Fatal("run produced no checkpoints; the blob comparison is vacuous")
	}
	for i := range scalarBlobs {
		if !bytes.Equal(scalarBlobs[i], ffBlobs[i]) {
			t.Fatalf("checkpoint %d blob diverged between backends", i)
		}
	}
}

// TestFastForwardMatchesScalarFullRuns is the keystone equivalence property
// of the fast-forward engine: across all four schedulers, scrub on and off,
// and every catalog scenario (plus the bare bank), a fast-forward eligible
// run on the auto backend must produce bit-identical Stats and bit-identical serialized
// checkpoints to the same run on the scalar reference. Schedulers or
// scenarios that do not declare steady capability simply keep the engine
// disengaged - equivalence must hold either way.
func TestFastForwardMatchesScalarFullRuns(t *testing.T) {
	h := newFFHarness(t, 7)
	scens := append([]string{""}, scenario.Names()...)
	for _, schedName := range []string{"jedec", "raidr", "vrl", "vrl-access"} {
		for _, withScrub := range []bool{false, true} {
			for _, scen := range scens {
				label := scen
				if label == "" {
					label = "bare"
				}
				t.Run(fmt.Sprintf("%s/scrub=%v/%s", schedName, withScrub, label), func(t *testing.T) {
					h.compareFF(t, schedName, scen, withScrub)
				})
			}
		}
	}
}

// TestFastForwardMatchesScalarSecondSeed re-runs a slice of the matrix on a
// different profile seed, so the equivalence does not hinge on one retention
// draw.
func TestFastForwardMatchesScalarSecondSeed(t *testing.T) {
	h := newFFHarness(t, 21)
	for _, withScrub := range []bool{false, true} {
		for _, scen := range []string{"", "kitchen-sink"} {
			label := scen
			if label == "" {
				label = "bare"
			}
			t.Run(fmt.Sprintf("vrl/scrub=%v/%s", withScrub, label), func(t *testing.T) {
				h.compareFF(t, "vrl", scen, withScrub)
			})
		}
	}
}

// TestFastForwardFallsBackUnderECC pins the static-ineligibility path: with
// ECC classification on, the auto backend must quietly run the per-event
// path and still match the scalar reference bit for bit.
func TestFastForwardFallsBackUnderECC(t *testing.T) {
	h := newBackendHarness(t, 7) // keeps ECC set
	scalarStats, scalarBlobs := h.runOnce(t, "vrl", "", false, BackendScalar)
	ffStats, ffBlobs := h.runOnce(t, "vrl", "", false, BackendAuto)
	if !reflect.DeepEqual(scalarStats, ffStats) {
		t.Fatalf("stats diverged under ECC:\nscalar:       %+v\nfast-forward: %+v", scalarStats, ffStats)
	}
	if len(scalarBlobs) == 0 || len(scalarBlobs) != len(ffBlobs) {
		t.Fatalf("checkpoint counts diverged: %d vs %d", len(scalarBlobs), len(ffBlobs))
	}
	for i := range scalarBlobs {
		if !bytes.Equal(scalarBlobs[i], ffBlobs[i]) {
			t.Fatalf("checkpoint %d blob diverged under ECC", i)
		}
	}
}

// ffQuietRun executes one trace-free, scrub-free run - the steady-state
// shape the engine is built for - and returns the stats plus the number of
// fast-forward windows the run consumed.
func ffQuietRun(t *testing.T, h *backendHarness, backend Backend, opts Options) (Stats, int) {
	t.Helper()
	bank, err := dram.NewBank(h.profile, retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}
	opts.Backend = backend
	var sc Scratch
	st, err := runContext(context.Background(), bank, h.sched(t, "vrl"), nil, opts, &sc)
	if err != nil {
		t.Fatal(err)
	}
	return st, sc.ffWindows
}

// TestFastForwardEngagesOnQuietRun asserts the engine actually fires on its
// target workload - a quiescent VRL run - rather than the equivalence matrix
// passing because fast-forward never engaged, and that the fast-forwarded
// run still matches the scalar reference exactly.
func TestFastForwardEngagesOnQuietRun(t *testing.T) {
	h := newFFHarness(t, 7)
	opts := Options{Duration: 4 * 0.768, TCK: h.opts.TCK}
	scalarStats, _ := ffQuietRun(t, h, BackendScalar, opts)
	ffStats, windows := ffQuietRun(t, h, BackendAuto, opts)
	if windows == 0 {
		t.Fatal("fast-forward engine never engaged on a quiet steady-state run")
	}
	if !reflect.DeepEqual(scalarStats, ffStats) {
		t.Fatalf("stats diverged:\nscalar:       %+v\nfast-forward: %+v", scalarStats, ffStats)
	}
}

// quietVRLRun runs refresh-only VRL for one bin hyperperiod on a freshly
// sampled bank of the given rows, through sc.
func quietVRLRun(t *testing.T, sc *Scratch, rows int, backend Backend) Stats {
	t.Helper()
	p := device.Default90nm()
	geom := device.BankGeometry{Rows: rows, Cols: 32}
	prof, err := retention.NewSampledProfile(geom, retention.DefaultCellDistribution(), 42)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := core.PaperRestoreModel(p, geom)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.NewVRL(prof, core.Config{Restore: rm})
	if err != nil {
		t.Fatal(err)
	}
	bank, err := dram.NewBank(prof, retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}
	st, err := runContext(context.Background(), bank, sched, nil, Options{Duration: 0.768, TCK: p.TCK, Backend: backend}, sc)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFastForwardLargeBank runs quiet VRL on a 32768-row sampled bank,
// where the kernel's row and count columns outgrow the capacities append
// first rounded them to, under both backends; then one Scratch taken
// through 4096, 32768 and 16384 rows, so the columns are re-grown and
// re-used across bank sizes. Every auto run must equal the scalar one.
func TestFastForwardLargeBank(t *testing.T) {
	scalar := map[int]Stats{}
	for _, rows := range []int{4096, 32768, 16384} {
		scalar[rows] = quietVRLRun(t, new(Scratch), rows, BackendScalar)
	}
	if got := quietVRLRun(t, new(Scratch), 32768, BackendAuto); !reflect.DeepEqual(got, scalar[32768]) {
		t.Fatalf("32768 rows: stats diverged:\nscalar: %+v\nauto:   %+v", scalar[32768], got)
	}
	sc := new(Scratch)
	for _, rows := range []int{4096, 32768, 16384} {
		got := quietVRLRun(t, sc, rows, BackendAuto)
		if !reflect.DeepEqual(got, scalar[rows]) {
			t.Fatalf("reused scratch at %d rows: stats diverged:\nscalar: %+v\nauto:   %+v", rows, scalar[rows], got)
		}
	}
	if sc.ffWindows == 0 {
		t.Fatal("fast-forward never engaged; the large-bank check is vacuous")
	}
}

// TestFastForwardMidSkipResume pins checkpoint/resume bit-identity through
// fast-forwarded regions: checkpoints taken by a fast-forwarding run land on
// horizon boundaries inside what would otherwise be one long skip, and
// resuming from each of them - on either backend - must reproduce the
// remainder of the run exactly.
func TestFastForwardMidSkipResume(t *testing.T) {
	h := newFFHarness(t, 7)
	base := Options{Duration: 4 * 0.768, TCK: h.opts.TCK}

	// Reference run with checkpoints: quiet, so every checkpoint boundary
	// splits a fast-forward span.
	var blobs [][]byte
	opts := base
	opts.CheckpointEvery = base.Duration / 5
	opts.CheckpointSink = func(cp *Checkpoint) error {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
			return err
		}
		blobs = append(blobs, buf.Bytes())
		return nil
	}
	ffStats, windows := ffQuietRun(t, h, BackendAuto, opts)
	if windows == 0 {
		t.Fatal("checkpointed run never fast-forwarded; resume test is vacuous")
	}
	if len(blobs) == 0 {
		t.Fatal("run produced no checkpoints")
	}
	scalarStats, _ := ffQuietRun(t, h, BackendScalar, opts)
	if !reflect.DeepEqual(scalarStats, ffStats) {
		t.Fatalf("checkpointed stats diverged:\nscalar:       %+v\nfast-forward: %+v", scalarStats, ffStats)
	}

	for i, blob := range blobs {
		var cp Checkpoint
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&cp); err != nil {
			t.Fatal(err)
		}
		resume := base
		resume.Resume = &cp
		var scalarTail, ffTail Stats
		for _, backend := range []Backend{BackendScalar, BackendAuto} {
			bank, err := dram.NewBank(h.profile, retention.ExpDecay{}, retention.PatternAllZeros)
			if err != nil {
				t.Fatal(err)
			}
			opts := resume
			opts.Backend = backend
			st, err := Run(bank, h.sched(t, "vrl"), nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			if backend == BackendScalar {
				scalarTail = st
			} else {
				ffTail = st
			}
		}
		if !reflect.DeepEqual(scalarTail, ffTail) {
			t.Fatalf("resume from checkpoint %d diverged:\nscalar:       %+v\nfast-forward: %+v", i, scalarTail, ffTail)
		}
	}
}

// hyperperiodSeconds is the paper profile's refresh hyperperiod: the LCM
// of its seven (period, MPRSF+1) classes.
const hyperperiodSeconds = 3.072

// skipCase configures one refresh-only VRL run on the paper bank: the
// profile seed, whether 5 % of its rows are mis-binned (so they sag below
// the sensing limit every cycle), an optional trace, and mod, which adjusts
// the bank, scheduler and options before the run.
type skipCase struct {
	seed   int64
	misbin bool
	recs   []trace.Record
	mod    func(*dram.Bank, core.Scheduler, *Options)
}

// skipRun runs c on the given backend and returns the Stats, every
// checkpoint blob, and the run's Scratch counters.
func skipRun(t *testing.T, c skipCase, backend Backend, opts Options) (Stats, [][]byte, *Scratch) {
	t.Helper()
	p := device.Default90nm()
	prof, err := retention.NewPaperProfile(retention.DefaultCellDistribution(), c.seed)
	if err != nil {
		t.Fatal(err)
	}
	if c.misbin {
		if prof, _, err = fault.MisBinProfile(prof, 0.05, retention.RAIDRBins, c.seed+1); err != nil {
			t.Fatal(err)
		}
	}
	rm, err := core.PaperRestoreModel(p, device.PaperBank)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.NewVRL(prof, core.Config{Restore: rm})
	if err != nil {
		t.Fatal(err)
	}
	bank, err := dram.NewBank(prof, retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}
	opts.TCK = p.TCK
	opts.Backend = backend
	var blobs [][]byte
	if opts.CheckpointEvery > 0 {
		opts.CheckpointSink = blobSink(&blobs, func() error { return nil })
	}
	if c.mod != nil {
		c.mod(bank, sched, &opts)
	}
	var src trace.Source
	if c.recs != nil {
		src = trace.NewSliceSource(c.recs)
	}
	sc := new(Scratch)
	st, err := runContext(context.Background(), bank, sched, src, opts, sc)
	if err != nil {
		t.Fatal(err)
	}
	return st, blobs, sc
}

// requireSameRuns fails unless two runs' Stats and checkpoint blobs are
// identical.
func requireSameRuns(t *testing.T, what string, a, b Stats, aBlobs, bBlobs [][]byte) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: stats diverged:\n%+v\n%+v", what, a, b)
	}
	if len(aBlobs) != len(bBlobs) {
		t.Fatalf("%s: checkpoint counts diverged: %d vs %d", what, len(aBlobs), len(bBlobs))
	}
	for i := range aBlobs {
		if !bytes.Equal(aBlobs[i], bBlobs[i]) {
			t.Fatalf("%s: checkpoint %d blob diverged", what, i)
		}
	}
}

// TestPeriodicSkipEngagesOnQuietRun runs the device-quiet shape - the paper
// bank, VRL, no trace, scrub, checkpoint or scenario - over 16
// hyperperiods. The profile's hyperperiod must be 3.072 s, the auto backend
// must skip all but a few hyperperiods, and its Stats must equal the
// scalar reference's.
func TestPeriodicSkipEngagesOnQuietRun(t *testing.T) {
	opts := Options{Duration: 16 * hyperperiodSeconds}
	var hyper int64
	scalar, _, _ := skipRun(t, skipCase{seed: 42}, BackendScalar, opts)
	auto, _, sc := skipRun(t, skipCase{seed: 42, mod: func(_ *dram.Bank, s core.Scheduler, _ *Options) {
		view := s.(core.OpStreamer).StreamView()
		cfg := dram.StreamConfig{Periods: view.Periods, RCount: view.RCount, MPRSF: view.MPRSF}
		hyper = hyperperiod(&cfg, len(view.Periods))
	}}, BackendAuto, opts)
	if want := dram.Ticks(hyperperiodSeconds); hyper != want {
		t.Fatalf("paper profile hyperperiod %d ticks, want %d (3.072 s)", hyper, want)
	}
	if sc.ffSkips < 12 {
		t.Fatalf("skipped %d of 16 hyperperiods, want at least 12", sc.ffSkips)
	}
	requireSameRuns(t, "auto vs scalar", scalar, auto, nil, nil)
}

// TestPeriodicSkipStopsAtExternalEvents pins where the skip must not
// engage: a trace record, scrub ticks, a checkpoint or a scenario inside
// the span, or a hyperperiod with a violation. Each run would skip without
// its disturbance (four hyperperiods leave room for one skip), and each
// must still match the scalar reference.
func TestPeriodicSkipStopsAtExternalEvents(t *testing.T) {
	base := Options{Duration: 4 * hyperperiodSeconds}
	if _, _, sc := skipRun(t, skipCase{seed: 42}, BackendAuto, base); sc.ffSkips == 0 {
		t.Fatal("undisturbed run never skipped; the cases below are vacuous")
	}
	cases := []struct {
		name string
		c    skipCase
	}{
		{"trace-record", skipCase{recs: []trace.Record{{Time: 2.5 * hyperperiodSeconds, Op: trace.Read, Row: 5}}}},
		{"checkpoint", skipCase{mod: func(_ *dram.Bank, _ core.Scheduler, o *Options) {
			o.CheckpointEvery = 1.9 * hyperperiodSeconds
			o.CheckpointSink = func(*Checkpoint) error { return nil }
		}}},
		{"scrub", skipCase{mod: func(b *dram.Bank, s core.Scheduler, o *Options) {
			store, err := scrub.NewBankStore(b, ecc.DefaultClassifier())
			if err != nil {
				t.Fatal(err)
			}
			if o.Scrub, err = scrub.New(store, scrub.Config{Sched: s}); err != nil {
				t.Fatal(err)
			}
		}}},
		{"scenario", skipCase{mod: func(b *dram.Bank, _ core.Scheduler, o *Options) {
			env, err := scenario.BuildEnv(scenario.Ref{Name: "diurnal"}, o.Duration, 3)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.SetModulator(env); err != nil {
				t.Fatal(err)
			}
			o.Scenario = env
		}}},
		// Mis-binned rows sag below the sensing limit every cycle, so no
		// hyperperiod is free of violations.
		{"violation", skipCase{misbin: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var results [2]Stats
			for i, backend := range []Backend{BackendScalar, BackendAuto} {
				c.c.seed = 42
				st, _, sc := skipRun(t, c.c, backend, base)
				results[i] = st
				if backend == BackendAuto && sc.ffSkips != 0 {
					t.Fatalf("skipped %d hyperperiods across a %s", sc.ffSkips, c.name)
				}
			}
			if c.name == "violation" && results[0].Violations == 0 {
				t.Fatal("violation case produced no violations")
			}
			requireSameRuns(t, "auto vs scalar", results[0], results[1], nil, nil)
		})
	}
}

// checkSkipResume runs span seconds checkpointed every 38.4 s (12.5
// hyperperiods) on both backends and requires: equal Stats and blobs
// between backends, Stats equal to the uncheckpointed run's, skips on the
// auto run, and a bit-identical resume from every checkpoint.
func checkSkipResume(t *testing.T, seed int64, span float64) {
	t.Helper()
	plain := Options{Duration: span}
	uncut, _, _ := skipRun(t, skipCase{seed: seed}, BackendAuto, plain)
	cut := plain
	cut.CheckpointEvery = 38.4
	scalar, scalarBlobs, _ := skipRun(t, skipCase{seed: seed}, BackendScalar, cut)
	auto, autoBlobs, sc := skipRun(t, skipCase{seed: seed}, BackendAuto, cut)
	if sc.ffSkips == 0 {
		t.Fatal("checkpointed quiet run never skipped")
	}
	if len(autoBlobs) == 0 {
		t.Fatal("run produced no checkpoints")
	}
	requireSameRuns(t, "auto vs scalar", scalar, auto, scalarBlobs, autoBlobs)
	requireSameRuns(t, "checkpointed vs uncheckpointed", uncut, auto, nil, nil)
	for i, blob := range autoBlobs {
		var cp Checkpoint
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&cp); err != nil {
			t.Fatal(err)
		}
		resume := skipCase{seed: seed, mod: func(_ *dram.Bank, _ core.Scheduler, o *Options) { o.Resume = &cp }}
		resumed, _, _ := skipRun(t, resume, BackendAuto, plain)
		requireSameRuns(t, fmt.Sprintf("resume from checkpoint %d", i), uncut, resumed, nil, nil)
	}
}

// TestPeriodicSkipCheckpointResume pins checkpoint/resume through skipped
// spans over 25 hyperperiods (76.8 s).
func TestPeriodicSkipCheckpointResume(t *testing.T) {
	checkSkipResume(t, 42, 25*hyperperiodSeconds)
}

var long = flag.Bool("long", false, "run the 100-hyperperiod skip equivalence test")

// TestPeriodicSkipLongEquivalence is the long form of the skip's
// equivalence gate, run by check.sh with -long: auto and scalar over 100
// hyperperiods (307.2 s) under seed 42 and a random seed, with the
// checkpoint and resume checks of checkSkipResume.
func TestPeriodicSkipLongEquivalence(t *testing.T) {
	if !*long {
		t.Skip("run with -long")
	}
	seeds := []int64{42, time.Now().UnixNano() % 1_000_000}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			checkSkipResume(t, seed, 100*hyperperiodSeconds)
		})
	}
}

// TestFFPlanProperties spot-checks the planner arithmetic the fuzz target
// hammers, on a deterministic grid (the fuzz corpus seeds mirror these).
func TestFFPlanProperties(t *testing.T) {
	if err := quick.Check(checkFFPlan, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// checkFFPlan verifies the planner invariants for one input triple: the
// kernel's event count (dram.EventsBelow) is never negative, never lands an
// event at or past the horizon, and is maximal (one more event would
// cross), and the horizon composition returns the minimum of its caps.
func checkFFPlan(t0, period, horizon int64) bool {
	k := dram.EventsBelow(t0, period, horizon)
	if k < 0 {
		return false
	}
	if period <= 0 || t0 >= horizon {
		if k != 0 {
			return false
		}
	} else {
		// In exact arithmetic: t0 + (k-1)·period < horizon <= t0 + k·period.
		last := new(big.Int).Mul(big.NewInt(k-1), big.NewInt(period))
		last.Add(last, big.NewInt(t0))
		over := new(big.Int).Add(last, big.NewInt(period))
		if k < 1<<62 && (last.Cmp(big.NewInt(horizon)) >= 0 || over.Cmp(big.NewInt(horizon)) < 0) {
			return false
		}
	}
	h := ffHorizon(horizon, t0, period, horizon, t0)
	return h == min(horizon, t0, period)
}

// FuzzFastForwardPlan fuzzes the fast-forward planner: for arbitrary
// (start, period, horizon) tick triples - including negatives and the
// int64 extremes - the event count must be non-negative, never plan an
// event at or past the horizon, and be maximal; the horizon composition
// must be the minimum of its caps.
func FuzzFastForwardPlan(f *testing.F) {
	f.Add(int64(0), int64(51_200_000), int64(614_400_000))
	f.Add(int64(614_319_999), int64(51_200_000), int64(614_400_000))
	f.Add(int64(0), int64(0), int64(800_000_000))
	f.Add(int64(800_000_000), int64(1), int64(800_000_001))
	f.Add(int64(math.MinInt64), int64(1), int64(math.MaxInt64))
	f.Add(int64(-1), int64(51_200_000), int64(614_400_000))
	f.Add(int64(0), int64(-51_200_000), int64(614_400_000))
	f.Add(int64(0), int64(51_200_000), int64(-1))
	f.Add(int64(0), int64(math.MaxInt64), int64(math.MaxInt64))
	f.Add(int64(math.MaxInt64), int64(1), int64(0))
	f.Add(int64(2_400_000_000), int64(51_200_000), int64(204_800_000))
	f.Fuzz(func(t *testing.T, t0, period, horizon int64) {
		if !checkFFPlan(t0, period, horizon) {
			t.Fatalf("plan invariant violated for t=%d period=%d horizon=%d (events=%d)",
				t0, period, horizon, dram.EventsBelow(t0, period, horizon))
		}
	})
}
