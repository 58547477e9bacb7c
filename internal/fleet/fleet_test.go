package fleet

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"vrldram/internal/scenario"
	"vrldram/internal/sim"
)

func testFleetSpec() Spec {
	return Spec{
		Devices:    10,
		Seed:       7,
		Scheduler:  "vrl",
		Duration:   0.05,
		Rows:       256,
		Cols:       4,
		ShardSize:  3,
		TempMeanC:  85,
		TempSwingC: 10,
		WeakFrac:   0.4,
		Scenarios: scenario.Mix{Items: []scenario.Weighted{
			{Ref: scenario.Ref{Name: "nominal"}, Weight: 2},
			{Ref: scenario.Ref{Name: "aging"}, Weight: 1},
		}},
		Guard: true,
		Scrub: true,
	}
}

func TestSpecValidateCatchesEachField(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"devices", func(s *Spec) { s.Devices = 0 }, "population"},
		{"scheduler", func(s *Spec) { s.Scheduler = "fifo" }, "scheduler"},
		{"duration", func(s *Spec) { s.Duration = -1 }, "duration"},
		{"duration-nan", func(s *Spec) { s.Duration = math.NaN() }, "duration"},
		{"duration-inf", func(s *Spec) { s.Duration = math.Inf(1) }, "duration"},
		{"duration-past-ticks", func(s *Spec) { s.Duration = 1.2e10 }, "duration"},
		{"rows", func(s *Spec) { s.Rows = -4 }, "rows"},
		{"shardsize", func(s *Spec) { s.ShardSize = -1 }, "shard size"},
		{"tempswing", func(s *Spec) { s.TempSwingC = -2 }, "swing"},
		{"tempswing-nan", func(s *Spec) { s.TempSwingC = math.NaN() }, "swing"},
		{"tempswing-inf", func(s *Spec) { s.TempSwingC = math.Inf(1) }, "swing"},
		{"tempmean-nan", func(s *Spec) { s.TempMeanC = math.NaN() }, "mean"},
		{"tempmean-inf", func(s *Spec) { s.TempMeanC = math.Inf(1) }, "mean"},
		{"tempmean-neg-inf", func(s *Spec) { s.TempMeanC = math.Inf(-1) }, "mean"},
		{"temprange-overflow", func(s *Spec) { s.TempMeanC, s.TempSwingC = -1e308, 1e308 }, "finite range"},
		{"weakfrac", func(s *Spec) { s.WeakFrac = 1.5 }, "weak"},
		{"weakfrac-nan", func(s *Spec) { s.WeakFrac = math.NaN() }, "weak"},
		{"scrubsweep", func(s *Spec) { s.ScrubSweep = -0.064 }, "scrub sweep"},
		{"scrubsweep-nan", func(s *Spec) { s.ScrubSweep = math.NaN() }, "scrub sweep"},
		{"scrubsweep-inf", func(s *Spec) { s.ScrubSweep = math.Inf(1) }, "scrub sweep"},
		{"backend", func(s *Spec) { s.Backend = sim.Backend(99) }, "undefined backend 99"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := testFleetSpec()
			c.mut(&s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate = %v, want mention of %q", err, c.want)
			}
		})
	}
	if err := testFleetSpec().Validate(); err != nil {
		t.Fatalf("base spec must validate: %v", err)
	}
}

// TestDeviceDerivationIsolatedStreams pins the load-bearing property of the
// population derivation: device environments are pure functions of
// (Spec, index), and changing one knob (the weak-device fraction) must not
// perturb the independent draws (profile seed, temperature).
func TestDeviceDerivationIsolatedStreams(t *testing.T) {
	spec := testFleetSpec()
	for i := 0; i < spec.Devices; i++ {
		a, b := spec.Device(i), spec.Device(i)
		if a != b {
			t.Fatalf("device %d not deterministic: %+v vs %+v", i, a, b)
		}
		if a.Seed <= 0 {
			t.Fatalf("device %d has non-positive profile seed %d", i, a.Seed)
		}
		lo, hi := spec.TempMeanC-spec.TempSwingC, spec.TempMeanC+spec.TempSwingC
		if a.TempC < lo || a.TempC > hi {
			t.Fatalf("device %d temperature %g outside [%g,%g]", i, a.TempC, lo, hi)
		}
		if a.Weak && a.WeakSeed <= 0 {
			t.Fatalf("weak device %d has non-positive fault seed", i)
		}
	}

	noWeak := spec
	noWeak.WeakFrac = 0
	for i := 0; i < spec.Devices; i++ {
		a, b := spec.Device(i), noWeak.Device(i)
		if a.Seed != b.Seed || a.TempC != b.TempC {
			t.Fatalf("device %d: WeakFrac change perturbed seed/temperature (%+v vs %+v)", i, a, b)
		}
		if b.Weak {
			t.Fatalf("device %d weak despite WeakFrac=0", i)
		}
	}

	// Distinct devices must not collapse onto one environment.
	seeds := map[int64]bool{}
	for i := 0; i < spec.Devices; i++ {
		seeds[spec.Device(i).Seed] = true
	}
	if len(seeds) != spec.Devices {
		t.Fatalf("only %d distinct profile seeds across %d devices", len(seeds), spec.Devices)
	}
}

// TestDeviceScenarioDrawIsolatedStream extends the stream-isolation property
// to the workload catalog: adding (or reweighting) a scenario mixture must
// not perturb any device's profile seed, temperature, or fault plan, and the
// draws themselves must be valid catalog refs with positive scenario seeds.
func TestDeviceScenarioDrawIsolatedStream(t *testing.T) {
	base := testFleetSpec()
	base.Devices = 200
	base.Scenarios = scenario.Mix{}
	mixed := base
	mixed.Scenarios = scenario.Mix{Items: []scenario.Weighted{
		{Ref: scenario.Ref{Name: "diurnal"}, Weight: 3},
		{Ref: scenario.Ref{Name: "kitchen-sink"}, Weight: 1},
	}}
	if err := mixed.Validate(); err != nil {
		t.Fatal(err)
	}

	picked := map[string]int{}
	for i := 0; i < base.Devices; i++ {
		a, b := base.Device(i), mixed.Device(i)
		if a.Seed != b.Seed || a.TempC != b.TempC || a.Weak != b.Weak || a.WeakSeed != b.WeakSeed {
			t.Fatalf("device %d: adding a scenario catalog perturbed the other draws (%+v vs %+v)", i, a, b)
		}
		if a.Scenario != (scenario.Ref{}) || a.ScenSeed != 0 {
			t.Fatalf("device %d drew a scenario from an empty catalog: %+v", i, a)
		}
		if b.Scenario.Name == "" || b.Scenario.Version == 0 {
			t.Fatalf("device %d drew no versioned scenario from the mixture: %+v", i, b)
		}
		if b.ScenSeed <= 0 {
			t.Fatalf("device %d has non-positive scenario seed %d", i, b.ScenSeed)
		}
		picked[b.Scenario.Name]++
	}
	if picked["diurnal"] == 0 || picked["kitchen-sink"] == 0 {
		t.Fatalf("mixture entries unused across %d devices: %v", base.Devices, picked)
	}
	if picked["diurnal"] <= picked["kitchen-sink"] {
		t.Fatalf("weight 3:1 not visible in the draws: %v", picked)
	}

	// Reweighting changes only the scenario stream.
	reweighted := mixed
	reweighted.Scenarios = scenario.Mix{Items: []scenario.Weighted{
		{Ref: scenario.Ref{Name: "diurnal"}, Weight: 1},
		{Ref: scenario.Ref{Name: "kitchen-sink"}, Weight: 3},
	}}
	for i := 0; i < base.Devices; i++ {
		a, b := mixed.Device(i), reweighted.Device(i)
		if a.Seed != b.Seed || a.TempC != b.TempC || a.Weak != b.Weak || a.ScenSeed != b.ScenSeed {
			t.Fatalf("device %d: reweighting perturbed non-pick draws", i)
		}
	}
}

// TestShardsPartitionExactly checks the shard plan covers every device index
// exactly once, in order, with a short tail shard.
func TestShardsPartitionExactly(t *testing.T) {
	spec := testFleetSpec() // 10 devices / shard size 3 -> 3+3+3+1
	shards := spec.Shards()
	if len(shards) != spec.NumShards() || len(shards) != 4 {
		t.Fatalf("got %d shards, NumShards=%d, want 4", len(shards), spec.NumShards())
	}
	next := 0
	for i, ss := range shards {
		if ss.Index != i {
			t.Fatalf("shard %d carries index %d", i, ss.Index)
		}
		if ss.Start != next {
			t.Fatalf("shard %d starts at %d, want %d", i, ss.Start, next)
		}
		if err := ss.Validate(); err != nil {
			t.Fatalf("shard %d invalid: %v", i, err)
		}
		next += ss.Count
	}
	if next != spec.Devices {
		t.Fatalf("shards cover %d devices, population has %d", next, spec.Devices)
	}
	if last := shards[len(shards)-1]; last.Count != 1 {
		t.Fatalf("tail shard holds %d devices, want 1", last.Count)
	}
}

func TestShardSpecCodecRoundTrip(t *testing.T) {
	for _, ss := range testFleetSpec().Shards() {
		blob := ss.Encode()
		got, err := DecodeShardSpec(blob)
		if err != nil {
			t.Fatalf("decode shard %d: %v", ss.Index, err)
		}
		want := ShardSpec{Spec: ss.Spec.WithDefaults(), Index: ss.Index, Start: ss.Start, Count: ss.Count}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d round trip:\n got %+v\nwant %+v", ss.Index, got, want)
		}
	}
	// A shard that lies about its device range must be refused.
	ss := testFleetSpec().Shards()[1]
	ss.Start++
	if _, err := DecodeShardSpec(ss.Encode()); err == nil {
		t.Fatal("shard with off-plan start must not decode")
	}
	if _, err := DecodeShardSpec(nil); err == nil {
		t.Fatal("empty blob must not decode")
	}
}

func TestShardResultCodecRoundTrip(t *testing.T) {
	ss := testFleetSpec().Shards()[0]
	r := fakeResult(ss)
	got, err := DecodeShardResult(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Encode()) != string(r.Encode()) {
		t.Fatal("shard result round trip not byte-identical")
	}
	// A result whose summary covers the wrong number of devices is refused.
	bad := fakeResult(ss)
	bad.Count++
	if _, err := DecodeShardResult(bad.Encode()); err == nil {
		t.Fatal("result with device-count mismatch must not decode")
	}
}
