package fleet

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"vrldram/internal/checkpoint"
	"vrldram/internal/ecc"
	"vrldram/internal/profcache"
	"vrldram/internal/scenario"
	"vrldram/internal/sim"
)

// fuzzDevice decodes one fuzz input into a single-device spec and its
// device: the retention seed, operating temperature, weak-cell fault plan,
// guard, scrub and scenario, on a small bank over two 64 ms cycles plus a
// fraction.
func fuzzDevice(seed int64, temp int8, flags, scen uint8) (Spec, Device) {
	if seed <= 0 {
		seed = 1 - seed%1_000_000
	}
	spec := Spec{
		Devices: 1, Seed: seed, Duration: 0.2, Rows: 128, Cols: 4,
		Scheduler: schedulerNames[flags&3],
		Guard:     flags&4 != 0,
		Scrub:     flags&8 != 0,
	}.WithDefaults()
	dev := Device{
		Seed:     seed,
		TempC:    spec.TempMeanC + float64(temp)/4,
		Weak:     flags&16 != 0,
		WeakSeed: seed + 7,
		ScenSeed: seed + 11,
	}
	names := scenario.Names()
	if i := int(scen) % (len(names) + 1); i > 0 {
		dev.Scenario = scenario.Ref{Name: names[i-1]}
	}
	return spec, dev
}

// fuzzRun builds the device on the given backend and runs it with
// checkpoints every cpEvery simulated seconds, returning the Stats and the
// encoded checkpoint blobs. eccMode 1 adds ECC classification to a run
// without scrub, 2 also demotes corrected rows, 3 upgrades them instead;
// resume, when set, continues from that snapshot.
func fuzzRun(t *testing.T, spec Spec, dev Device, backend sim.Backend, eccMode uint8, cpEvery float64, resume *sim.Checkpoint) (sim.Stats, [][]byte, bool) {
	t.Helper()
	spec.Backend = backend
	bank, sched, opts, err := buildDevice(spec, dev, &profcache.Cache{})
	if err != nil {
		return sim.Stats{}, nil, false
	}
	if opts.Scrub == nil && eccMode > 0 {
		cls := ecc.DefaultClassifier()
		opts.ECC = &cls
		opts.DemoteOnCorrect = eccMode == 2
		opts.UpgradeOnCorrect = eccMode == 3
	}
	var blobs [][]byte
	opts.CheckpointEvery = cpEvery
	opts.CheckpointSink = func(cp *sim.Checkpoint) error {
		var buf bytes.Buffer
		if err := checkpoint.EncodeSim(&buf, cp); err != nil {
			return err
		}
		blobs = append(blobs, buf.Bytes())
		return nil
	}
	opts.Resume = resume
	st, err := sim.RunContext(context.Background(), bank, sched, nil, opts)
	if err != nil {
		t.Fatalf("%s run: %v", backend, err)
	}
	return st, blobs, true
}

// FuzzDeviceEquivalence is the fleet's backend differential: a drawn device
// configuration - retention seed, temperature, weak-cell plan, guard,
// scrub, ECC demote or upgrade, scenario - must give equal Stats and equal
// checkpoint blobs under the auto and scalar backends, and resuming either
// backend from a drawn checkpoint must reproduce the uncut run bit for bit.
// It covers the batch path the guard, scrub and ECC configurations keep
// fleet devices on.
func FuzzDeviceEquivalence(f *testing.F) {
	f.Add(int64(42), int8(0), uint8(2), uint8(0), uint8(0))     // vrl, bare
	f.Add(int64(7), int8(60), uint8(2|32), uint8(0), uint8(1))  // hot vrl, ECC
	f.Add(int64(9), int8(80), uint8(2|64), uint8(2), uint8(2))  // hotter, ECC demote, scenario
	f.Add(int64(3), int8(80), uint8(3|96), uint8(1), uint8(3))  // vrl-access, ECC upgrade
	f.Add(int64(5), int8(40), uint8(2|4|8), uint8(3), uint8(1)) // guard + scrub
	f.Add(int64(11), int8(-40), uint8(1|16), uint8(4), uint8(2))
	f.Add(int64(13), int8(100), uint8(2|4|16|64), uint8(5), uint8(0))
	// A hot weak vrl device whose corrected errors upgrade rows mid-batch:
	// fails as soon as the batch path gathers periods ahead of ECC repairs.
	f.Add(int64(-78), int8(98), uint8(0xF2), uint8(8), uint8(105))
	f.Fuzz(func(t *testing.T, seed int64, temp int8, flags, scen, cut uint8) {
		spec, dev := fuzzDevice(seed, temp, flags, scen)
		eccMode := flags >> 5 & 3
		cpEvery := spec.Duration / float64(2+cut%4)
		auto, autoBlobs, ok := fuzzRun(t, spec, dev, sim.BackendAuto, eccMode, cpEvery, nil)
		if !ok {
			return // a configuration the builder refuses on either backend
		}
		scalar, scalarBlobs, _ := fuzzRun(t, spec, dev, sim.BackendScalar, eccMode, cpEvery, nil)
		if !reflect.DeepEqual(auto, scalar) {
			t.Fatalf("stats diverged:\nauto:   %+v\nscalar: %+v", auto, scalar)
		}
		if len(autoBlobs) == 0 || len(autoBlobs) != len(scalarBlobs) {
			t.Fatalf("checkpoint counts: auto %d, scalar %d", len(autoBlobs), len(scalarBlobs))
		}
		for i := range autoBlobs {
			if !bytes.Equal(autoBlobs[i], scalarBlobs[i]) {
				t.Fatalf("checkpoint %d blob diverged between backends", i)
			}
		}
		cp, err := checkpoint.DecodeSim(bytes.NewReader(autoBlobs[int(cut)%len(autoBlobs)]))
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []sim.Backend{sim.BackendAuto, sim.BackendScalar} {
			resumed, _, _ := fuzzRun(t, spec, dev, backend, eccMode, cpEvery, cp)
			if !reflect.DeepEqual(resumed, auto) {
				t.Fatalf("%s resume diverged:\nuncut:   %+v\nresumed: %+v", backend, auto, resumed)
			}
		}
	})
}
