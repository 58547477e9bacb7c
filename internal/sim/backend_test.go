package sim

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/ecc"
	"vrldram/internal/fault"
	"vrldram/internal/profiler"
	"vrldram/internal/retention"
	"vrldram/internal/scenario"
	"vrldram/internal/scrub"
	"vrldram/internal/trace"
)

// TestBatchQueueMatchesHeapPopOrder is the queue-level property for the
// lane queue: popped one event at a time, it must emit exactly the (time,
// row) sequence the reference binary heap does. An explicit case pins
// short-period re-pushes that land ahead of every other lane's head; random
// periodic workloads add the per-period FIFO lanes, the mixed-lane sort,
// FIFO-violation spills and late pushes into the mixed lane.
func TestBatchQueueMatchesHeapPopOrder(t *testing.T) {
	// One 1 ms row among 64 ms and 128 ms lanes: between the long rows'
	// refreshes each of its re-pushes becomes the queue minimum. Every fifth
	// re-push carries no period hint.
	periods := []int64{dram.Ticks(1e-3)}
	for r := 1; r < 7; r++ {
		periods = append(periods, dram.Ticks(64e-3*float64(1+r%2)))
	}
	pushes := 0
	ok, overtakes := popAgainstHeap(periods, func() bool { pushes++; return pushes%5 == 0 })
	if !ok {
		t.Fatal("lane queue diverged from the heap on the short-period case")
	}
	if overtakes == 0 {
		t.Fatal("no re-push ever overtook the other lanes' heads; the short-period case misses it")
	}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		periods := make([]int64, 1+rng.Intn(200))
		for r := range periods {
			// A handful of shared periods (lane-friendly), a few short ones,
			// and a random tail that overflows batchMaxLanes and spills to
			// the mixed lane.
			switch rng.Intn(8) {
			case 0:
				periods[r] = dram.Ticks(1e-3 * float64(1+rng.Intn(2)))
			case 1, 2, 3, 4:
				periods[r] = dram.Ticks(64e-3 * float64(1+rng.Intn(4)))
			default:
				periods[r] = dram.Ticks(32e-3 * math.Pow(2, 5*rng.Float64()))
			}
		}
		ok, _ := popAgainstHeap(periods, func() bool { return rng.Intn(64) == 0 })
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// popAgainstHeap pushes one event per row, at its staggered phase of its
// period, into both the lane queue and the reference heap, then pops them
// one event at a time and re-pushes each popped row a period later until
// 0.7 s. It reports whether every pop matched and how many re-pushes became
// the queue minimum. hintless picks the re-pushes made without a period
// hint, as a resume would make them.
func popAgainstHeap(periods []int64, hintless func() bool) (ok bool, overtakes int) {
	var bq batchQueue
	bq.reset()
	var heap eventQueue
	for r, p := range periods {
		e := event{T: int64(staggerFrac(r) * float64(p)), Row: r}
		bq.push(e)
		heap.push(e)
	}
	horizon := dram.Ticks(0.7)
	for heap.size() > 0 {
		if bq.size() != heap.size() || bq.peekTime() != heap.peekTime() {
			return false, overtakes
		}
		he := heap.pop()
		if be := bq.pop(); be != he {
			return false, overtakes
		}
		next := he.T + periods[he.Row]
		if next >= horizon {
			continue
		}
		ne := event{T: next, Row: he.Row}
		if heap.size() > 0 && eventLess(ne, heap[0]) {
			overtakes++
		}
		if hintless() {
			bq.push(ne)
		} else {
			bq.pushNext(ne, periods[he.Row])
		}
		heap.push(ne)
	}
	return bq.size() == 0 && bq.peekTime() == never, overtakes
}

// TestBatchQueuePendingSortedMatchesHeap pins the checkpoint form: however
// the outstanding events are distributed across lanes, pendingSorted must
// equal the heap queue's canonical listing.
func TestBatchQueuePendingSortedMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var bq batchQueue
	bq.reset()
	var heap eventQueue
	for r := 0; r < 300; r++ {
		e := event{T: dram.Ticks(rng.Float64()), Row: r}
		if r%2 == 0 {
			d := dram.Ticks(64e-3 * float64(1+r%20)) // > batchMaxLanes distinct deltas
			bq.pushNext(e, d)
		} else {
			bq.push(e)
		}
		heap.push(e)
	}
	// Consume a prefix one event at a time so head offsets are non-trivial
	// in both.
	for bq.peekTime() < dram.Ticks(0.25) {
		if got, want := bq.pop(), heap.pop(); got != want {
			t.Fatalf("pop %+v, heap popped %+v", got, want)
		}
	}
	if got, want := bq.pendingSorted(), heap.pendingSorted(); !reflect.DeepEqual(got, want) {
		t.Fatalf("pendingSorted diverged:\nbatch: %v\nheap:  %v", got, want)
	}
}

// backendHarness builds one fully-featured run configuration for the
// backend equivalence matrix: a mis-binned retention profile (so ECC
// classification fires), an access trace, checkpointing, and optional
// scenario and scrub layers.
type backendHarness struct {
	geom    device.BankGeometry
	profile *retention.BankProfile
	rm      core.RestoreModel
	recs    []trace.Record
	seed    int64
	opts    Options
}

func newBackendHarness(t *testing.T, seed int64) *backendHarness {
	t.Helper()
	h := newHarnessGeom(t, device.BankGeometry{Rows: 256, Cols: 32}, seed)
	h.recs = make([]trace.Record, 1200)
	for i := range h.recs {
		op := trace.Read
		if i%3 == 0 {
			op = trace.Write
		}
		h.recs[i] = trace.Record{Time: float64(i) * 0.768 / float64(len(h.recs)), Op: op, Row: (i * 37) % h.geom.Rows}
	}
	return h
}

// newHarnessGeom builds the harness without a trace: a sampled profile with
// 5 % of its rows mis-binned, the paper restore model, and ECC-classified
// options over one bin hyperperiod.
func newHarnessGeom(t testing.TB, geom device.BankGeometry, seed int64) *backendHarness {
	t.Helper()
	p := device.Default90nm()
	prof, err := retention.NewSampledProfile(geom, retention.DefaultCellDistribution(), seed)
	if err != nil {
		t.Fatal(err)
	}
	bad, _, err := fault.MisBinProfile(prof, 0.05, retention.RAIDRBins, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := core.PaperRestoreModel(p, geom)
	if err != nil {
		t.Fatal(err)
	}
	cls := ecc.DefaultClassifier()
	return &backendHarness{
		geom:    geom,
		profile: bad,
		rm:      rm,
		seed:    seed,
		opts:    Options{Duration: 0.768, TCK: p.TCK, ECC: &cls},
	}
}

func (h *backendHarness) sched(t testing.TB, name string) core.Scheduler {
	t.Helper()
	cfg := core.Config{Restore: h.rm}
	var (
		s   core.Scheduler
		err error
	)
	switch name {
	case "jedec":
		s, err = core.NewJEDEC(device.Default90nm().TRetNom, h.rm)
	case "raidr":
		s, err = core.NewRAIDR(h.profile, cfg)
	case "vrl":
		s, err = core.NewVRL(h.profile, cfg)
	case "vrl-access":
		s, err = core.NewVRLAccess(h.profile, cfg)
	default:
		t.Fatalf("unknown scheduler %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// build assembles one run on the harness: a fresh bank and scheduler, and
// the harness options with the backend set and the named catalog scenario
// ("" = bare bank) and optional patrol scrubber attached.
func (h *backendHarness) build(t testing.TB, schedName, scenName string, withScrub bool, backend Backend) (*dram.Bank, core.Scheduler, Options) {
	t.Helper()
	bank, err := dram.NewBank(h.profile, retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}
	sched := h.sched(t, schedName)
	opts := h.opts
	opts.Backend = backend
	if scenName != "" {
		env, err := scenario.BuildEnv(scenario.Ref{Name: scenName}, opts.Duration, h.seed+3)
		if err != nil {
			t.Fatal(err)
		}
		if err := bank.SetModulator(env); err != nil {
			t.Fatal(err)
		}
		opts.Scenario = env
	}
	if withScrub {
		// The scrub store needs a classifier even when the run itself skips
		// ECC classification (the fast-forward harness clears opts.ECC to
		// stay eligible).
		cls := opts.ECC
		if cls == nil {
			d := ecc.DefaultClassifier()
			cls = &d
		}
		store, err := scrub.NewBankStore(bank, *cls)
		if err != nil {
			t.Fatal(err)
		}
		scr, err := scrub.New(store, scrub.Config{
			Sched:  sched,
			Spares: 64,
			Reprofile: func(row int) (float64, error) {
				return profiler.ProfileRow(h.profile, retention.ExpDecay{}, row, profiler.Options{})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		opts.Scrub = scr
	}
	return bank, sched, opts
}

// blobSink returns a CheckpointSink that gob-encodes every checkpoint into
// *blobs and then returns ret.
func blobSink(blobs *[][]byte, ret func() error) func(*Checkpoint) error {
	return func(cp *Checkpoint) error {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
			return err
		}
		*blobs = append(*blobs, buf.Bytes())
		return ret()
	}
}

// runOnce executes one full checkpointed run on the requested backend and
// returns the stats plus the gob-encoded checkpoint stream. scenName names
// a catalog scenario to decay under ("" = bare bank).
func (h *backendHarness) runOnce(t *testing.T, schedName, scenName string, withScrub bool, backend Backend) (Stats, [][]byte) {
	t.Helper()
	bank, sched, opts := h.build(t, schedName, scenName, withScrub, backend)
	var blobs [][]byte
	opts.CheckpointEvery = opts.Duration / 4
	opts.CheckpointSink = blobSink(&blobs, func() error { return nil })
	st, err := runContext(context.Background(), bank, sched, trace.NewSliceSource(h.recs), opts, new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	return st, blobs
}

// comparePair runs the same configuration on the scalar reference and the
// auto backend and demands bit-identical Stats and bit-identical serialized
// checkpoints. With the harness's ECC classification on, auto runs every
// window event by event (fast-forward is statically ineligible).
func (h *backendHarness) comparePair(t *testing.T, schedName, scenName string, withScrub bool) {
	t.Helper()
	scalarStats, scalarBlobs := h.runOnce(t, schedName, scenName, withScrub, BackendScalar)
	autoStats, autoBlobs := h.runOnce(t, schedName, scenName, withScrub, BackendAuto)
	if !reflect.DeepEqual(scalarStats, autoStats) {
		t.Fatalf("stats diverged:\nscalar: %+v\nauto:   %+v", scalarStats, autoStats)
	}
	if len(scalarBlobs) != len(autoBlobs) {
		t.Fatalf("checkpoint counts diverged: %d vs %d", len(scalarBlobs), len(autoBlobs))
	}
	if len(scalarBlobs) == 0 {
		t.Fatal("run produced no checkpoints; the blob comparison is vacuous")
	}
	for i := range scalarBlobs {
		if !bytes.Equal(scalarBlobs[i], autoBlobs[i]) {
			t.Fatalf("checkpoint %d blob diverged between backends", i)
		}
	}
}

// TestBatchMatchesScalarFullRuns is the keystone equivalence property of
// the auto backend: across all four schedulers, scrub on and off, and
// every catalog scenario (plus the bare bank), a run on the auto backend
// must produce bit-identical Stats and bit-identical serialized checkpoints
// to the same run on the scalar reference.
func TestBatchMatchesScalarFullRuns(t *testing.T) {
	h := newBackendHarness(t, 7)
	scens := append([]string{""}, scenario.Names()...)
	for _, schedName := range []string{"jedec", "raidr", "vrl", "vrl-access"} {
		for _, withScrub := range []bool{false, true} {
			for _, scen := range scens {
				label := scen
				if label == "" {
					label = "bare"
				}
				t.Run(fmt.Sprintf("%s/scrub=%v/%s", schedName, withScrub, label), func(t *testing.T) {
					h.comparePair(t, schedName, scen, withScrub)
				})
			}
		}
	}
}

// TestBatchMatchesScalarSecondSeed re-runs a slice of the matrix on a
// different profile seed, so the equivalence does not hinge on one
// retention draw.
func TestBatchMatchesScalarSecondSeed(t *testing.T) {
	h := newBackendHarness(t, 21)
	for _, withScrub := range []bool{false, true} {
		for _, scen := range []string{"", "kitchen-sink"} {
			label := scen
			if label == "" {
				label = "bare"
			}
			t.Run(fmt.Sprintf("vrl/scrub=%v/%s", withScrub, label), func(t *testing.T) {
				h.comparePair(t, "vrl", scen, withScrub)
			})
		}
	}
}
