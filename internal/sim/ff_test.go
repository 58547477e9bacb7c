package sim

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"vrldram/internal/core"
	"vrldram/internal/dram"
	"vrldram/internal/retention"
	"vrldram/internal/scenario"
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
// ECC classification on, the auto backend must quietly run the plain
// batched path and still match the scalar reference bit for bit.
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
	r := NewReusable(h.geom.Rows)
	st, err := r.Run(bank, h.sched(t, "vrl"), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st, r.scratch.ffWindows
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

// TestFastForwardBoundedWindows pins the event-budget cap on a quiet
// paper-bank VRL run spanning several budgets: the span must be cut into at
// least three fast-forward windows, the macro kernel's event columns must
// stay sized to one budget rather than to the run, and cutting the span -
// at budget boundaries, at checkpoints, or across a kill and resume - must
// leave Stats and checkpoint blobs bit-identical to the scalar reference.
func TestFastForwardBoundedWindows(t *testing.T) {
	f := setup(t)
	rows := f.profile.Geom.Rows
	vrl := func() core.Scheduler {
		s, err := core.NewVRL(f.profile, core.Config{Restore: f.rm})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	base := Options{Duration: 32 * 0.768, TCK: f.params.TCK}
	run := func(opts Options, backend Backend) (Stats, *Reusable, error) {
		opts.Backend = backend
		r := NewReusable(rows)
		st, err := r.Run(f.bank(t, retention.PatternAllZeros), vrl(), nil, opts)
		return st, r, err
	}

	// Uninterrupted: the budget alone cuts the span.
	whole, r, err := run(base, BackendAuto)
	if err != nil {
		t.Fatal(err)
	}
	scalar, _, err := run(base, BackendScalar)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scalar, whole) {
		t.Fatalf("stats diverged:\nscalar:       %+v\nfast-forward: %+v", scalar, whole)
	}
	if events := scalar.Refreshes(); events < 3*ffWindowEvents {
		t.Fatalf("run holds %d events, fewer than three %d-event budgets", events, ffWindowEvents)
	}
	if r.scratch.ffWindows < 3 {
		t.Fatalf("fast-forward ran %d windows over three budgets' worth of events", r.scratch.ffWindows)
	}
	// One window's columns hold its ~ffWindowEvents events plus per-row lap
	// rounding (each row's column rounds up to a whole lap and a tile of 8)
	// and the kernel's 1/4 growth headroom; a window covering the whole run
	// would need several times this.
	if c, bound := r.scratch.ffScratch.EventCap(), 2*ffWindowEvents+4*rows; c > bound {
		t.Fatalf("macro time column grew to %d slots, budget bound is %d", c, bound)
	}

	// Checkpointed: boundaries every half run, so checkpoints and budget
	// boundaries interleave, and the blobs must match the scalar stream.
	capture := func(blobs *[][]byte, kill error) func(*Checkpoint) error {
		return func(cp *Checkpoint) error {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
				return err
			}
			*blobs = append(*blobs, buf.Bytes())
			return kill
		}
	}
	cpOpts := base
	cpOpts.CheckpointEvery = base.Duration / 2
	var scalarBlobs, ffBlobs [][]byte
	cpOpts.CheckpointSink = capture(&scalarBlobs, nil)
	scalarCP, _, err := run(cpOpts, BackendScalar)
	if err != nil {
		t.Fatal(err)
	}
	cpOpts.CheckpointSink = capture(&ffBlobs, nil)
	ffCP, _, err := run(cpOpts, BackendAuto)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scalarCP, ffCP) || !reflect.DeepEqual(whole, ffCP) {
		t.Fatalf("checkpointed stats diverged:\nscalar:       %+v\nfast-forward: %+v\nuncut:        %+v", scalarCP, ffCP, whole)
	}
	if len(scalarBlobs) == 0 || len(scalarBlobs) != len(ffBlobs) {
		t.Fatalf("checkpoint counts diverged: %d vs %d", len(scalarBlobs), len(ffBlobs))
	}
	for i := range scalarBlobs {
		if !bytes.Equal(scalarBlobs[i], ffBlobs[i]) {
			t.Fatalf("checkpoint %d blob diverged between backends", i)
		}
	}

	// Kill and resume: the sink aborts the run at its first checkpoint,
	// which lies past the first budget boundary, and the resumed remainder
	// crosses another; the result must equal the uninterrupted run.
	errKill := errors.New("killed")
	var killBlobs [][]byte
	cpOpts.CheckpointSink = capture(&killBlobs, errKill)
	if _, _, err := run(cpOpts, BackendAuto); !errors.Is(err, errKill) {
		t.Fatalf("killed run returned %v, want the sink's kill error", err)
	}
	var cp Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(killBlobs[0])).Decode(&cp); err != nil {
		t.Fatal(err)
	}
	resume := base
	resume.Resume = &cp
	resumed, _, err := run(resume, BackendAuto)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(whole, resumed) {
		t.Fatalf("kill/resume diverged from the uninterrupted run:\nuncut:   %+v\nresumed: %+v", whole, resumed)
	}
}

// TestFFPlanProperties spot-checks the planner arithmetic the fuzz target
// hammers, on a deterministic grid (the fuzz corpus seeds mirror these).
func TestFFPlanProperties(t *testing.T) {
	f := func(t0, period, horizon float64, n1, n2 uint8) bool {
		return checkFFPlan(t0, period, horizon) && checkFFBudget(t0, period, horizon, n1, n2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// checkFFPlan verifies the planner invariants for one input triple: the
// kernel's lap count (dram.LapsBelow) is never negative, never lands an
// event at or past the horizon, and is maximal (one more lap would cross),
// and the horizon composition returns the minimum of its caps.
func checkFFPlan(t0, period, horizon float64) bool {
	k := dram.LapsBelow(t0, period, horizon)
	if k < 0 {
		return false
	}
	if k > 0 {
		if !(t0+float64(k)*period < horizon) {
			return false
		}
	}
	if k < dram.MaxLaps && period > 0 && t0 < horizon {
		// Maximality: the next lap must not also fit (MaxLaps saturates).
		if t0+float64(k+1)*period < horizon {
			return false
		}
	}
	h := ffHorizon(horizon, t0, period, horizon, t0)
	min := horizon
	for _, v := range []float64{t0, period, horizon, t0} {
		if v < min {
			min = v
		}
	}
	if h != min && !(math.IsNaN(h) && math.IsNaN(min)) {
		return false
	}
	return true
}

// checkFFBudget verifies the event-budget cap over a generated lane set: a
// lane of period p holding n1 unconsumed events, a lane of period slow
// holding n2 behind a consumed prefix, and an empty lane whose NaN period
// must be ignored. The cap is never NaN, is +Inf when no lane holds events,
// and otherwise lies strictly above a finite start and at least one
// shortest lap past it, so the engagement gate still passes; from t=0 a
// cap above the longest period (the floor) plans at most the budget.
func checkFFBudget(t0, p, slow float64, n1, n2 uint8) bool {
	lanes := []batchLane{
		{Delta: p, Events: make([]event, n1)},
		{Delta: slow, Events: make([]event, 2*int(n2)), Head: int(n2)},
		{Delta: math.NaN(), Events: make([]event, 3), Head: 3},
	}
	h := ffBudgetHorizon(lanes, t0)
	if math.IsNaN(h) {
		return false
	}
	if n1 == 0 && n2 == 0 {
		return math.IsInf(h, 1)
	}
	if math.IsNaN(t0) || math.IsInf(t0, 0) {
		return true
	}
	if !(h > t0) || !(h >= t0+ffMinLap(lanes)) {
		return false
	}
	h0 := ffBudgetHorizon(lanes, 0)
	rate, longest := 0.0, 0.0
	for _, l := range lanes[:2] {
		if n := len(l.Events) - l.Head; n > 0 {
			rate += float64(n) / l.Delta
			longest = max(longest, l.Delta)
		}
	}
	if h0 > longest && !math.IsInf(h0, 1) && rate*h0 > ffWindowEvents*(1+1e-12) {
		return false
	}
	return true
}

// FuzzFastForwardPlan fuzzes the fast-forward planner: for arbitrary
// (start, period, horizon) triples - including NaNs, infinities, negatives,
// and denormals - the lap count must be non-negative, never plan an event
// at or past the horizon, and be maximal; the horizon composition must be
// the minimum of its caps. The same inputs, as lane periods with the two
// counts, drive the event-budget cap properties (checkFFBudget).
func FuzzFastForwardPlan(f *testing.F) {
	f.Add(0.0, 64e-3, 0.768, uint8(200), uint8(50))
	f.Add(0.7679, 64e-3, 0.768, uint8(1), uint8(0))
	f.Add(0.0, 0.0, 1.0, uint8(3), uint8(3))
	f.Add(1.0, math.SmallestNonzeroFloat64, 1.0000000001, uint8(255), uint8(255))
	f.Add(-1e300, 1e-300, 1e300, uint8(0), uint8(7))
	f.Add(math.NaN(), 64e-3, 0.768, uint8(9), uint8(9))
	f.Add(0.0, math.NaN(), 0.768, uint8(9), uint8(0))
	f.Add(0.0, 64e-3, math.NaN(), uint8(0), uint8(9))
	f.Add(0.0, math.Inf(1), math.Inf(1), uint8(1), uint8(1))
	f.Add(1e20, 1e-10, 1e-12, uint8(4), uint8(4))
	f.Add(3.0, 64e-3, 256e-3, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, t0, period, horizon float64, n1, n2 uint8) {
		if !checkFFPlan(t0, period, horizon) {
			t.Fatalf("plan invariant violated for t=%g period=%g horizon=%g (laps=%d)",
				t0, period, horizon, dram.LapsBelow(t0, period, horizon))
		}
		if !checkFFBudget(t0, period, horizon, n1, n2) {
			t.Fatalf("budget cap invariant violated for t=%g periods=(%g, %g) counts=(%d, %d)",
				t0, period, horizon, n1, n2)
		}
	})
}
