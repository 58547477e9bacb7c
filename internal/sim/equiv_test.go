package sim

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/scenario"
	"vrldram/internal/trace"
)

// TestRunRejectsUndefinedBackends pins the backend menu: only auto and
// scalar exist, any other value - arbitrary, or a retired runner's number
// - fails the run up front instead of running some default path, and the
// retired names no longer parse.
func TestRunRejectsUndefinedBackends(t *testing.T) {
	if got := BackendNames(); !reflect.DeepEqual(got, []string{"auto", "scalar"}) {
		t.Fatalf("BackendNames = %v", got)
	}
	h := newFFHarness(t, 7)
	for _, b := range []Backend{Backend(99), Backend(4), Backend(-1)} {
		bank, sched, opts := h.build(t, "vrl", "", false, b)
		_, err := Run(bank, sched, nil, opts)
		if err == nil || !strings.Contains(err.Error(), "undefined backend") {
			t.Fatalf("%v: Run = %v, want an undefined-backend error", b, err)
		}
	}
	for _, name := range []string{"batch", "batch-lut", "fast-forward"} {
		if _, err := ParseBackend(name); err == nil {
			t.Fatalf("retired backend name %q still parses", name)
		}
	}
}

// steadyScheduler is every capability a fast-forward eligible scheduler
// offers; misreportedView embeds one to forward them all.
type steadyScheduler interface {
	core.Scheduler
	core.SteadyScheduler
	core.OpStreamer
	core.Snapshotter
}

// misreportedView is a scheduler whose StreamView reports one row's period
// as -1 tick while the row keeps refreshing at its real period: a view no lane
// can match, so every fast-forward window the run attempts must be refused
// and the per-event path must take it instead.
type misreportedView struct {
	steadyScheduler
	row int
}

func (m misreportedView) StreamView() core.StreamView {
	v := m.steadyScheduler.StreamView()
	v.Periods = append([]int64(nil), v.Periods...)
	v.Periods[m.row] = -1
	return v
}

// TestMacroBailFallsThroughToBatch runs a quiet, checkpointed VRL run whose
// StreamView misreports a row's period: the kernel bails on every window it
// is offered, and the run - taking the per-event path for each of them - must
// still produce Stats and checkpoint blobs bit-identical to the scalar
// reference. The honest view on the same run must fast-forward, so the
// refusals come from the misreported row alone.
func TestMacroBailFallsThroughToBatch(t *testing.T) {
	h := newFFHarness(t, 7)
	run := func(backend Backend, misreport bool) (Stats, [][]byte, *Scratch) {
		bank, sched, opts := h.build(t, "vrl", "", false, backend)
		if misreport {
			sched = misreportedView{steadyScheduler: sched.(steadyScheduler), row: 17}
		}
		opts.Duration = 4 * 0.768
		opts.ECC = nil
		var blobs [][]byte
		opts.CheckpointEvery = opts.Duration / 4
		opts.CheckpointSink = blobSink(&blobs, func() error { return nil })
		sc := new(Scratch)
		st, err := runContext(context.Background(), bank, sched, nil, opts, sc)
		if err != nil {
			t.Fatal(err)
		}
		return st, blobs, sc
	}
	scalar, scalarBlobs, _ := run(BackendScalar, false)
	if _, _, honest := run(BackendAuto, false); honest.ffWindows == 0 {
		t.Fatal("honest view never fast-forwarded; the bail test is vacuous")
	}
	auto, autoBlobs, sc := run(BackendAuto, true)
	if sc.ffWindows != 0 || sc.ffBails == 0 {
		t.Fatalf("misreported view ran %d fast-forward windows and bailed %d times, want 0 and > 0",
			sc.ffWindows, sc.ffBails)
	}
	if !reflect.DeepEqual(scalar, auto) {
		t.Fatalf("stats diverged:\nscalar: %+v\nauto:   %+v", scalar, auto)
	}
	if len(scalarBlobs) == 0 || len(scalarBlobs) != len(autoBlobs) {
		t.Fatalf("checkpoint counts diverged: %d vs %d", len(scalarBlobs), len(autoBlobs))
	}
	for i := range scalarBlobs {
		if !bytes.Equal(scalarBlobs[i], autoBlobs[i]) {
			t.Fatalf("checkpoint %d blob diverged between backends", i)
		}
	}
}

// equivGeom is the fuzz target's bank geometry: small enough that the
// runs of one input take milliseconds.
var equivGeom = device.BankGeometry{Rows: 64, Cols: 8}

// FuzzRunEquivalence is the differential safety net for the two backends.
// From the fuzz input it draws a scheduler, a catalog scenario (or none),
// a profile seed, a duration, a checkpoint interval, a short access trace,
// scrub on or off, and a kill point, then requires:
//   - the auto backend's Stats and serialized checkpoints bit-identical to
//     the scalar reference's;
//   - a run killed one step after the drawn checkpoint (context cancelled
//     in the sink, so the final snapshot lands on an arbitrary event
//     boundary) and resumed from its final snapshot - on either backend -
//     ending with the uninterrupted run's Stats and emitting the same
//     checkpoints from there on.
func FuzzRunEquivalence(f *testing.F) {
	f.Add(uint8(2), uint8(0), int64(7), uint16(1500), uint8(3), uint8(0), false, uint8(1))
	f.Add(uint8(3), uint8(1), int64(21), uint16(900), uint8(0), uint8(40), true, uint8(0))
	f.Add(uint8(0), uint8(3), int64(3), uint16(2000), uint8(6), uint8(5), true, uint8(4))
	f.Add(uint8(1), uint8(5), int64(11), uint16(300), uint8(2), uint8(63), false, uint8(2))
	f.Add(uint8(2), uint8(2), int64(-5), uint16(1200), uint8(1), uint8(9), true, uint8(7))
	scheds := []string{"jedec", "raidr", "vrl", "vrl-access"}
	scens := append([]string{""}, scenario.Names()...)
	f.Fuzz(func(t *testing.T, schedIdx, scenIdx uint8, seed int64, durMs uint16, cpDiv, nTrace uint8, withScrub bool, killAt uint8) {
		if seed == 0 {
			seed = 1
		}
		h := newHarnessGeom(t, equivGeom, seed)
		h.opts.ECC = nil // keep fast-forward eligible; scrub brings its own classifier
		h.opts.Duration = 0.05 + float64(durMs%2048)/1000
		rng := rand.New(rand.NewSource(seed))
		n := int(nTrace % 64)
		h.recs = make([]trace.Record, n)
		for i := range h.recs {
			op := trace.Read
			if rng.Intn(3) == 0 {
				op = trace.Write
			}
			// One row in eight is out of range, which the runner skips.
			h.recs[i] = trace.Record{Time: rng.Float64() * h.opts.Duration, Op: op, Row: rng.Intn(equivGeom.Rows + equivGeom.Rows/8)}
		}
		for i := 1; i < n; i++ {
			for j := i; j > 0 && h.recs[j].Time < h.recs[j-1].Time; j-- {
				h.recs[j], h.recs[j-1] = h.recs[j-1], h.recs[j]
			}
		}
		schedName := scheds[int(schedIdx)%len(scheds)]
		scen := scens[int(scenIdx)%len(scens)]
		cpEvery := h.opts.Duration / float64(2+cpDiv%7)

		// run executes one configuration; cancelAt >= 0 cancels the run's
		// context inside the sink at that checkpoint index.
		run := func(backend Backend, resume *Checkpoint, cancelAt int) (Stats, [][]byte, error) {
			bank, sched, opts := h.build(t, schedName, scen, withScrub, backend)
			opts.Resume = resume
			opts.CheckpointEvery = cpEvery
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var blobs [][]byte
			opts.CheckpointSink = blobSink(&blobs, func() error {
				if len(blobs) == cancelAt+1 {
					cancel()
				}
				return nil
			})
			st, err := RunContext(ctx, bank, sched, trace.NewSliceSource(h.recs), opts)
			return st, blobs, err
		}
		label := fmt.Sprintf("%s/%q/scrub=%v/dur=%g/cp=%g/trace=%d", schedName, scen, withScrub, h.opts.Duration, cpEvery, n)

		scalar, scalarBlobs, err := run(BackendScalar, nil, -1)
		if err != nil {
			t.Fatalf("%s: scalar: %v", label, err)
		}
		auto, autoBlobs, err := run(BackendAuto, nil, -1)
		if err != nil {
			t.Fatalf("%s: auto: %v", label, err)
		}
		if !reflect.DeepEqual(scalar, auto) {
			t.Fatalf("%s: stats diverged:\nscalar: %+v\nauto:   %+v", label, scalar, auto)
		}
		if len(scalarBlobs) != len(autoBlobs) {
			t.Fatalf("%s: checkpoint counts diverged: %d vs %d", label, len(scalarBlobs), len(autoBlobs))
		}
		for i := range scalarBlobs {
			if !bytes.Equal(scalarBlobs[i], autoBlobs[i]) {
				t.Fatalf("%s: checkpoint %d blob diverged between backends", label, i)
			}
		}
		if len(autoBlobs) == 0 {
			return
		}

		k := int(killAt) % len(autoBlobs)
		for _, killed := range []Backend{BackendAuto, BackendScalar} {
			_, killBlobs, err := run(killed, nil, k)
			if err == nil {
				continue // the run ended before it next checked its context
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: %v run killed after checkpoint %d returned %v", label, killed, k, err)
			}
			var cp Checkpoint
			if err := gob.NewDecoder(bytes.NewReader(killBlobs[len(killBlobs)-1])).Decode(&cp); err != nil {
				t.Fatal(err)
			}
			for _, resumed := range []Backend{BackendAuto, BackendScalar} {
				st, tail, err := run(resumed, &cp, -1)
				if err != nil {
					t.Fatalf("%s: resume on %v from %v kill at tick %d: %v", label, resumed, killed, cp.Time, err)
				}
				if !reflect.DeepEqual(st, auto) {
					t.Fatalf("%s: resume on %v from %v kill at tick %d diverged:\nuncut:   %+v\nresumed: %+v",
						label, resumed, killed, cp.Time, auto, st)
				}
				// The periodic checkpoints of the resumed run are exactly the
				// uninterrupted run's from the kill point on.
				want := autoBlobs[len(autoBlobs)-len(tail):]
				for i := range tail {
					if !bytes.Equal(tail[i], want[i]) {
						t.Fatalf("%s: resume on %v from %v kill: checkpoint %d blob diverged", label, resumed, killed, i)
					}
				}
			}
		}
	})
}
