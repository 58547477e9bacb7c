package scenario

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"vrldram/internal/fault"
	"vrldram/internal/retention"
)

const (
	testWindow = 0.768
	testSeed   = int64(42)
)

func buildNamed(t *testing.T, name string) *Env {
	t.Helper()
	env, err := BuildEnv(Ref{Name: name}, testWindow, testSeed)
	if err != nil {
		t.Fatalf("BuildEnv(%q): %v", name, err)
	}
	return env
}

func TestCatalogBuildsAndValidates(t *testing.T) {
	names := Names()
	if len(names) < 5 {
		t.Fatalf("catalog holds %d scenarios, want at least 5", len(names))
	}
	for _, name := range names {
		env := buildNamed(t, name)
		sc, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) missing", name)
		}
		if env.Ref.Name != name || env.Ref.Version != sc.Version {
			t.Fatalf("%s: env ref %s, catalog v%d", name, env.Ref, sc.Version)
		}
		if err := env.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	if _, err := BuildEnv(Ref{Name: "hurricane"}, testWindow, testSeed); err == nil {
		t.Fatal("unknown scenario must not build")
	}
	if _, err := BuildEnv(Ref{Name: "diurnal", Version: 99}, testWindow, testSeed); err == nil {
		t.Fatal("version pin mismatch must not build")
	}
	if _, err := BuildEnv(Ref{Name: "diurnal"}, 0, testSeed); err == nil {
		t.Fatal("zero duration must not build")
	}
}

// TestStreamIndependenceComposition pins the property the kitchen-sink
// scenario depends on: because stressor streams are keyed by LABEL, not by
// position in the composition, each stressor inside kitchen-sink draws
// exactly what it draws in its standalone scenario - so the composed scale
// is exactly (bitwise) the product of the standalone scales.
func TestStreamIndependenceComposition(t *testing.T) {
	ks := buildNamed(t, "kitchen-sink")
	parts := []*Env{
		buildNamed(t, "diurnal"),
		buildNamed(t, "vrt-storm"),
		buildNamed(t, "dpd-adversary"),
		buildNamed(t, "aging"),
	}
	if len(ks.Stressors) != len(parts) {
		t.Fatalf("kitchen-sink composes %d stressors, want %d", len(ks.Stressors), len(parts))
	}
	for row := 0; row < 64; row++ {
		for _, tret := range []float64{0.08, 0.13, 0.27} {
			for i := 0; i <= 32; i++ {
				tt := testWindow * float64(i) / 32
				want := 1.0
				for _, p := range parts {
					want *= p.ScaleAt(row, tret, tt)
				}
				if got := ks.ScaleAt(row, tret, tt); got != want {
					t.Fatalf("row %d tret %g t %g: kitchen-sink scale %g, product of standalones %g",
						row, tret, tt, got, want)
				}
			}
		}
	}
}

// TestEnvSingleVRTMatchesVRTDecayFactor pins the bit-identity between the
// scenario layer's generic segment integrator and retention.VRT's own
// DecayFactor loop: an Env holding exactly one VRT stressor must integrate
// every interval to the identical float64.
func TestEnvSingleVRTMatchesVRTDecayFactor(t *testing.T) {
	v := retention.VRT{AffectedFrac: 0.5, LowFactor: 0.3, MeanDwell: 0.05, MinRetention: 0.05, Seed: 99}
	env := &Env{
		Ref:       Ref{Name: "test", Version: 1},
		Seed:      testSeed,
		Duration:  testWindow,
		Stressors: []Stressor{VRTStressor{Label: "telegraph", V: v}},
	}
	base := retention.ExpDecay{}
	for row := 0; row < 128; row++ {
		for _, tret := range []float64{0.03, 0.1, 0.4} {
			for i := 0; i < 16; i++ {
				t0 := testWindow * float64(i) / 16
				t1 := t0 + testWindow/11
				got := env.DecayFactor(row, tret, t0, t1, base)
				want := v.DecayFactor(row, tret, t0, t1, base)
				if got != want {
					t.Fatalf("row %d tret %g [%g,%g]: env %v, VRT %v", row, tret, t0, t1, got, want)
				}
			}
		}
	}
}

func TestEnvNoStressorsReducesToBase(t *testing.T) {
	env := buildNamed(t, "nominal")
	base := retention.ExpDecay{}
	for _, span := range []struct{ t0, t1 float64 }{{0, 0.064}, {0.1, 0.35}, {0.5, 0.5}, {0.7, 0.3}} {
		got := env.DecayFactor(3, 0.2, span.t0, span.t1, base)
		want := 1.0
		if span.t1 > span.t0 {
			want = base.Factor(span.t1-span.t0, 0.2)
		}
		if got != want {
			t.Fatalf("[%g,%g]: got %v, want %v", span.t0, span.t1, got, want)
		}
	}
}

// TestStressorsMakeProgress guards the segment loop's termination contract:
// NextChange must be strictly after t even exactly on a boundary.
func TestStressorsMakeProgress(t *testing.T) {
	for _, name := range Names() {
		env := buildNamed(t, name)
		for _, s := range env.Stressors {
			tt := 0.0
			for i := 0; i < 10000; i++ {
				n := s.NextChange(7, 0.2, tt)
				if math.IsInf(n, 1) {
					break
				}
				if n <= tt {
					t.Fatalf("%s/%s: NextChange(%g) = %g, not strictly after", name, s.Name(), tt, n)
				}
				tt = n
				if tt > testWindow {
					break
				}
			}
		}
	}
}

func TestSnapshotRestoreIdentity(t *testing.T) {
	for _, name := range Names() {
		env := buildNamed(t, name)
		blob, err := env.SnapshotState()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := env.RestoreState(blob); err != nil {
			t.Fatalf("%s: restore own snapshot: %v", name, err)
		}
		// An identically rebuilt env accepts the blob; snapshot is a fixed
		// point.
		again := buildNamed(t, name)
		if err := again.RestoreState(blob); err != nil {
			t.Fatalf("%s: rebuilt env rejected snapshot: %v", name, err)
		}
		blob2, err := again.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("%s: snapshot not a fixed point", name)
		}
	}

	ks := buildNamed(t, "kitchen-sink")
	blob, err := ks.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if err := buildNamed(t, "diurnal").RestoreState(blob); err == nil {
		t.Fatal("different scenario must reject the snapshot")
	}
	other, err := BuildEnv(Ref{Name: "kitchen-sink"}, testWindow, testSeed+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreState(blob); err == nil {
		t.Fatal("different seed must reject the snapshot")
	}
	shorter, err := BuildEnv(Ref{Name: "kitchen-sink"}, testWindow/2, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := shorter.RestoreState(blob); err == nil {
		t.Fatal("different window must reject the snapshot")
	}
	if err := ks.RestoreState([]byte("garbage")); err == nil {
		t.Fatal("garbage blob must be rejected")
	}
}

func TestMixParseStringRoundTrip(t *testing.T) {
	m, err := ParseMix("diurnal=3, vrt-storm, kitchen-sink@v1=2")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Items) != 3 {
		t.Fatalf("parsed %d items, want 3", len(m.Items))
	}
	if m.Items[0].Ref.Name != "diurnal" || m.Items[0].Weight != 3 || m.Items[0].Ref.Version != 1 {
		t.Fatalf("first item %+v", m.Items[0])
	}
	if m.Items[1].Weight != 1 {
		t.Fatalf("bare name weight %d, want 1", m.Items[1].Weight)
	}
	back, err := ParseMix(m.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", m.String(), err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Fatalf("String round trip:\n got %+v\nwant %+v", back, m)
	}

	empty, err := ParseMix("  ")
	if err != nil || !empty.Empty() {
		t.Fatalf("blank mixture: %+v, %v", empty, err)
	}

	for _, bad := range []string{"hurricane", "diurnal=0", "diurnal=-1", "diurnal=x", "diurnal@vx", "diurnal,diurnal", "diurnal,,aging", "diurnal@v9"} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) must fail", bad)
		}
	}
}

func TestMixPickWeighted(t *testing.T) {
	m, err := ParseMix("diurnal=3,aging=1")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 4096; i++ {
		r := m.Pick(splitmix64(uint64(i)))
		if r != m.Pick(splitmix64(uint64(i))) {
			t.Fatal("Pick is not deterministic")
		}
		counts[r.Name]++
	}
	if counts["diurnal"]+counts["aging"] != 4096 {
		t.Fatalf("picks escaped the mixture: %v", counts)
	}
	if counts["diurnal"] <= 2*counts["aging"] {
		t.Fatalf("weight 3:1 not respected: %v", counts)
	}
	if (Mix{}).Pick(12345) != (Ref{}) {
		t.Fatal("empty mix must pick the zero ref")
	}
}

func TestMixCodecRoundTrip(t *testing.T) {
	m, err := ParseMix("nominal=2,vrt-storm=5,kitchen-sink")
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMix(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("codec round trip:\n got %+v\nwant %+v", got, m)
	}
	if !bytes.Equal(got.Encode(), m.Encode()) {
		t.Fatal("re-encode not byte-identical")
	}

	if _, err := DecodeMix(nil); err == nil {
		t.Fatal("empty blob must not decode")
	}
	blob := m.Encode()
	if _, err := DecodeMix(blob[:len(blob)-3]); err == nil {
		t.Fatal("truncated blob must not decode")
	}
	if _, err := DecodeMix(append(append([]byte{}, blob...), 0xFF)); err == nil {
		t.Fatal("trailing bytes must not decode")
	}
}

// FuzzScenarioDecode is the hostile-input surface of the mixture codec: no
// input may panic, and anything that decodes must be a valid, canonically
// re-encodable mixture.
func FuzzScenarioDecode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("smix1"))
	if m, err := ParseMix("diurnal=3,vrt-storm"); err == nil {
		f.Add(m.Encode())
	}
	if m, err := ParseMix("kitchen-sink"); err == nil {
		f.Add(m.Encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMix(data)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("decoded mixture fails validation: %v", err)
		}
		again, err := DecodeMix(m.Encode())
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatal("decode -> encode -> decode not a fixed point")
		}
	})
}

func TestFprintCatalogListsEveryScenario(t *testing.T) {
	var buf bytes.Buffer
	FprintCatalog(&buf)
	out := buf.String()
	for _, name := range Names() {
		if !strings.Contains(out, name) {
			t.Fatalf("catalog listing misses %q:\n%s", name, out)
		}
	}
}

// fleetWindow is the fleet-mixed benchmark's device run window.
const fleetWindow = 0.128

// exactnessEnvs is every catalog scenario plus kitchen-sink with a
// weak-cell telegraph appended after BuildEnv, the way fleet devices
// compose weak cells into their scenario, at the test window and at the
// fleet's, where the grid's cells are shorter in absolute time.
func exactnessEnvs(t testing.TB) map[string]*Env {
	envs := make(map[string]*Env)
	for _, name := range Names() {
		env, err := BuildEnv(Ref{Name: name}, testWindow, testSeed)
		if err != nil {
			t.Fatalf("BuildEnv(%q): %v", name, err)
		}
		envs[name] = env
	}
	env, err := BuildEnv(Ref{Name: "kitchen-sink"}, testWindow, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	env.Stressors = append(env.Stressors, VRTStressor{Label: "weak-cells", V: *fault.DefaultTransientWeakCells(testSeed + 1)})
	envs["kitchen-sink+weak-cells"] = env
	for _, name := range []string{"kitchen-sink", "vrt-storm", "diurnal"} {
		fleet, err := BuildEnv(Ref{Name: name}, fleetWindow, testSeed+2)
		if err != nil {
			t.Fatal(err)
		}
		fleet.Stressors = append(fleet.Stressors, VRTStressor{Label: "weak-cells", V: *fault.DefaultTransientWeakCells(testSeed + 3)})
		envs["fleet-"+name+"+weak-cells"] = fleet
	}
	// A roster longer than maxParts gets no grid: every stressor is
	// evaluated directly.
	long, err := BuildEnv(Ref{Name: "kitchen-sink"}, testWindow, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; len(long.Stressors) < maxParts+2; i++ {
		long.Stressors = append(long.Stressors,
			NewTempCycle(testSeed, fmt.Sprintf("cycle-%d", i), retention.DefaultTempModel(), 70, 4, testWindow/3, 5),
			AgingRamp{Label: fmt.Sprintf("ramp-%d", i), Model: retention.DefaultAgingModel(), Years: 1, Window: testWindow, Steps: 7})
	}
	envs["long-roster"] = long
	return envs
}

// decayCase is one DecayFactor query.
type decayCase struct {
	row          int
	tret, t0, t1 float64
}

// cellEnds lists the ends of the Env's grid cells, the boundaries the
// compiled walk trusts up to; none for an Env without a grid.
func cellEnds(env *Env) []float64 {
	var out []float64
	if g := env.compiledSchedule(); g != nil {
		for _, c := range g.cells {
			out = append(out, c.end)
		}
	}
	return out
}

// exactnessCases builds the probe set for one Env: random spans, spans
// starting or ending exactly on a grid cell's end and one ulp either side,
// the whole window, and spans past the window's end.
func exactnessCases(env *Env, rng *rand.Rand) []decayCase {
	d := env.Duration
	var cs []decayCase
	add := func(t0, t1 float64) {
		cs = append(cs, decayCase{row: rng.Intn(96), tret: 0.02 + rng.Float64()*0.5, t0: t0, t1: t1})
	}
	for i := 0; i < 300; i++ {
		t0 := d * rng.Float64()
		add(t0, t0+(d-t0)*rng.Float64())
	}
	for _, end := range cellEnds(env) {
		if end > d {
			continue
		}
		for _, x := range []float64{math.Nextafter(end, 0), end, math.Nextafter(end, d)} {
			add(x, d)
			add(x, x+(d-x)*rng.Float64())
			add(0, x)
			add(x*rng.Float64(), x)
		}
	}
	add(0, d)
	add(0, math.Nextafter(d, math.Inf(1)))
	add(d*rng.Float64(), 1.5*d)
	add(-0.1*d, d/2)
	return cs
}

// checkAgainstReference requires DecayFactor to equal decayFactorRef bit
// for bit on every case, and reports the first mismatch.
func checkAgainstReference(env *Env, cs []decayCase) error {
	base := retention.ExpDecay{}
	for i, c := range cs {
		want := env.decayFactorRef(c.row, c.tret, c.t0, c.t1, base)
		if got := env.DecayFactor(c.row, c.tret, c.t0, c.t1, base); got != want {
			return fmt.Errorf("case %d (row %d tret %g [%.17g,%.17g]): DecayFactor %.17g, reference %.17g",
				i, c.row, c.tret, c.t0, c.t1, got, want)
		}
	}
	return nil
}

// TestCompiledScheduleMatchesReference pins the compiled schedule to the
// reference walk: every catalog scenario, and one with a stressor appended
// after BuildEnv.
func TestCompiledScheduleMatchesReference(t *testing.T) {
	for name, env := range exactnessEnvs(t) {
		t.Run(name, func(t *testing.T) {
			if err := checkAgainstReference(env, exactnessCases(env, rand.New(rand.NewSource(23)))); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCompiledScheduleConcurrentFirstCall has two goroutines race to the
// first decay call on one Env; under -race this checks the lazy build is
// properly synchronised, and both must still see the reference's bits.
func TestCompiledScheduleConcurrentFirstCall(t *testing.T) {
	probe := exactnessEnvs(t)["kitchen-sink+weak-cells"]
	cs := exactnessCases(probe, rand.New(rand.NewSource(29)))
	env := exactnessEnvs(t)["kitchen-sink+weak-cells"]
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = checkAgainstReference(env, cs)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// changePoints lists s's change-points for the row over (from, until], at most
// limit of them: the frame, tread and toggle boundaries a walk splits at.
func changePoints(s Stressor, row int, tret, from, until float64, limit int) []float64 {
	var out []float64
	for t := from; len(out) < limit; {
		n := s.NextChange(row, tret, t)
		if !(n > t) || n > until {
			break
		}
		out = append(out, n)
		t = n
	}
	return out
}

// snapCandidates lists the instants where the walk's compiled and direct
// evaluations meet for one row: the grid's cell ends, every gate's episode
// boundaries, and the row's toggle times of every telegraph, gated or not.
func snapCandidates(env *Env, row int, tret float64) []float64 {
	out := cellEnds(env)
	for _, s := range env.Stressors {
		if g, ok := s.(Gate); ok {
			// A gate's change-points include every episode boundary.
			out = append(out, changePoints(g, row, tret, 0, env.Duration, 256)...)
			s = g.Inner
		}
		if v, ok := s.(VRTStressor); ok {
			out = append(out, changePoints(v, row, tret, 0, env.Duration, 256)...)
		}
	}
	return out
}

// FuzzEnvDecayFactor requires the compiled path to equal the reference walk
// for any scenario, seed, row, retention and span the fuzzer picks; odd
// multiples of the catalog size in idx append a weak-cell telegraph. A
// non-zero edge moves t0 onto a snap candidate (a grid cell's end, a
// gate episode boundary or one of the row's toggles), up to three ulps
// either side, where the compiled and direct schedules can disagree.
func FuzzEnvDecayFactor(f *testing.F) {
	f.Add(uint8(5), int64(42), uint16(3), 0.1, 0.0, testWindow, uint16(0))
	f.Add(uint8(1), int64(7), uint16(90), 0.3, 0.2, 0.5, uint16(0))
	f.Add(uint8(4), int64(-1), uint16(0), 0.02, 0.7, 1.2, uint16(0))
	f.Add(uint8(6), int64(9), uint16(17), 0.05, 0.064, 0.128, uint16(0))
	f.Add(uint8(11), int64(3), uint16(40), 0.2, 0.0, 0.6, uint16(0x53))
	names := Names()
	base := retention.ExpDecay{}
	f.Fuzz(func(t *testing.T, idx uint8, seed int64, row uint16, tret, t0, t1 float64, edge uint16) {
		if !(tret > 0) || math.IsInf(tret, 0) || math.IsNaN(t0) || math.IsNaN(t1) ||
			math.Abs(t0) > 4*testWindow || math.Abs(t1) > 4*testWindow {
			return
		}
		env, err := BuildEnv(Ref{Name: names[int(idx)%len(names)]}, testWindow, seed)
		if err != nil {
			t.Fatal(err)
		}
		if int(idx)/len(names)%2 == 1 {
			env.Stressors = append(env.Stressors, VRTStressor{Label: "weak-cells", V: *fault.DefaultTransientWeakCells(seed)})
		}
		if edge != 0 {
			t0 = snap(t0, snapCandidates(env, int(row), tret), edge)
		}
		want := env.decayFactorRef(int(row), tret, t0, t1, base)
		if got := env.DecayFactor(int(row), tret, t0, t1, base); got != want {
			t.Fatalf("DecayFactor %.17g, reference %.17g", got, want)
		}
	})
}

// snap moves t onto cands[sel>>3], then sel&7 - 3 ulps along the line; with
// no candidates it returns t unchanged.
func snap(t float64, cands []float64, sel uint16) float64 {
	if len(cands) == 0 {
		return t
	}
	t = cands[int(sel>>3)%len(cands)]
	ulps, dir := int(sel&7)-3, math.Inf(1)
	if ulps < 0 {
		ulps, dir = -ulps, math.Inf(-1)
	}
	for ; ulps > 0; ulps-- {
		t = math.Nextafter(t, dir)
	}
	return t
}

// segmentStressors is every stressor with the segmenter capability: a
// telegraph, a pattern adversary, and gates over a row-dependent and a
// row-invariant inner stressor. The telegraph leaves half its rows
// unaffected and exempts rows with retention below 0.05 s.
func segmentStressors(seed int64) []Stressor {
	vrt := NewVRTStressor(seed, "telegraph", stormVRT(testWindow))
	vrt.V.AffectedFrac = 0.5
	vrt.V.MinRetention = 0.05
	temp := NewTempCycle(seed, "cycle", retention.DefaultTempModel(), 85, 8, testWindow/2, 12)
	return []Stressor{
		vrt,
		NewPatternAdversary(seed, "adversary", testWindow/16, 0.25, retention.PatternAlternating),
		NewGate(seed, "gate/vrt", testWindow/6, 0.5, vrt),
		NewGate(seed, "gate/cycle", testWindow/5, 0.5, temp),
	}
}

// checkCell checks the grid cell a walk would read at t against the
// stressors evaluated directly there, for one row. Where the cell is
// trusted at t, each part must give what its stressor's ScaleAt gives:
// a row-invariant part from its compiled scale, a gate from its compiled
// episode index and activity (its inner stressor, or the bound telegraph
// row, inside an active episode, with NextChange capped at the boundary),
// and an adversary from the frame key XORed with the row key. The cell's
// end must be the earliest time-only change-point at t: NextChange of the
// row-invariant parts and the adversaries, and each gate's episode
// boundary. An untrusted t, or an Env without a grid, checks nothing.
func checkCell(env *Env, row int, tret, t float64) error {
	g := env.compiledSchedule()
	if g == nil {
		return nil
	}
	i := g.locate(t)
	c := g.trusted(&i, t)
	if c == nil {
		return nil
	}
	vals := c.vals
	end := math.Inf(1)
	for j := range g.parts {
		p, s := &g.parts[j], env.Stressors[j]
		want, next := s.ScaleAt(row, tret, t), s.NextChange(row, tret, t)
		got := want
		switch p.kind {
		case partCell:
			got, end = math.Float64frombits(vals[j]), math.Min(end, next)
		case partFrame:
			got, end = 1, math.Min(end, next)
			if unitOf(splitmix64(rowKey(row)^vals[j])) < p.hotFrac {
				got = p.hotScale[1]
			}
		case partGate:
			gate := s.(Gate)
			k, boundary := frameOf(t, gate.Period), frameNext(t, gate.Period)
			if active := vals[j]&1 == 1; vals[j]>>1 != uint64(k) || active != gate.active(k) {
				return fmt.Errorf("%s t %.17g: cell %d holds episode %d (active %v), draw %d (active %v)",
					s.Name(), t, i, vals[j]>>1, active, k, gate.active(k))
			}
			end, got = math.Min(end, boundary), 1
			if vals[j]&1 == 1 && p.telegraph {
				scale, n := p.vrt.Row(row, tret).Segment(t)
				if !(n < boundary) {
					n = boundary
				}
				if n != next {
					return fmt.Errorf("%s row %d t %.17g: bound row's next %.17g, NextChange %.17g", s.Name(), row, t, n, next)
				}
				got = scale
			} else if vals[j]&1 == 1 {
				got = p.eval.ScaleAt(row, tret, t)
			}
		}
		if got != want {
			return fmt.Errorf("%s (part %d) row %d t %.17g: cell %d gives scale %.17g, ScaleAt %.17g", s.Name(), j, row, t, i, got, want)
		}
	}
	if end != c.end {
		return fmt.Errorf("t %.17g: cell %d [%.17g, %.17g] ends before the earliest change-point %.17g", t, i, c.start, c.end, end)
	}
	return nil
}

// FuzzStressorSegment pins the pieces the compiled walk reads. Every
// segmenter must return exactly (ScaleAt, NextChange) for the fuzzed row,
// retention and instant, and a telegraph's bound row must also equal
// retention.VRT's Segment, StateFactor and NextToggle, and the change-point
// must lie strictly after any finite instant, however far from 0; a
// non-zero edge moves the instant onto one of that stressor's change-points
// for the row within a few windows of it, up to three ulps either side.
// Then the grid cell of the Env idx picks (a
// catalog scenario; odd multiples of the catalog size append a weak-cell
// telegraph, and the next bit selects the fleet's window) must match its
// stressors at the instant, as checkCell checks, with edge snapping it onto
// a cell's end.
func FuzzStressorSegment(f *testing.F) {
	f.Add(uint8(5), int64(42), uint16(3), 0.1, 0.3, uint16(0))
	f.Add(uint8(11), int64(7), uint16(90), 0.5, 0.0, uint16(0x53))
	f.Add(uint8(17), int64(-1), uint16(11), 0.02, 1.2, uint16(0x1f))
	f.Add(uint8(2), int64(9), uint16(0), 0.3, -0.5, uint16(0x7))
	f.Add(uint8(23), int64(42), uint16(5), 0.04, 0.2, uint16(0x2b))
	// Far from t = 0, where half an ulp of t exceeds a change-point's
	// 1e-9-period step: 2.1e7 s and a year.
	f.Add(uint8(3), int64(42), uint16(0), 0.96, 2.1e7, uint16(0x3b))
	f.Add(uint8(8), int64(5), uint16(7), 0.5, 3.1536e7, uint16(0x1a))
	same := func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
	names := Names()
	f.Fuzz(func(t *testing.T, idx uint8, seed int64, row uint16, tret, tt float64, edge uint16) {
		r := int(row)
		for _, s := range segmentStressors(seed) {
			at := tt
			if edge != 0 {
				from := math.Max(0, tt-2*testWindow)
				at = snap(at, changePoints(s, r, tret, from, from+4*testWindow, 64), edge)
			}
			wantScale, wantNext := s.ScaleAt(r, tret, at), s.NextChange(r, tret, at)
			if !math.IsInf(at, 0) && !math.IsNaN(at) && !(wantNext > at) {
				t.Fatalf("%s (%T) row %d tret %g t %.17g: NextChange %.17g does not advance", s.Name(), s, row, tret, at, wantNext)
			}
			check := func(how string, scale, next float64) {
				if !same(scale, wantScale) || !same(next, wantNext) {
					t.Fatalf("%s (%T) row %d tret %g t %.17g: %s (%.17g, %.17g), want (%.17g, %.17g)",
						s.Name(), s, row, tret, at, how, scale, next, wantScale, wantNext)
				}
			}
			scale, next := s.(segmenter).segment(r, tret, at)
			check("segment", scale, next)
			if v, ok := s.(VRTStressor); ok {
				scale, next = v.V.Row(r, tret).Segment(at)
				check("VRTRow.Segment", scale, next)
				scale, next = v.V.Segment(r, tret, at)
				check("VRT.Segment", scale, next)
				check("StateFactor/NextToggle", v.V.StateFactor(r, tret, at), v.V.NextToggle(r, tret, at))
			}
		}
		window := testWindow
		if int(idx)/len(names)/2%2 == 1 {
			window = fleetWindow
		}
		env, err := BuildEnv(Ref{Name: names[int(idx)%len(names)]}, window, seed)
		if err != nil {
			t.Fatal(err)
		}
		if int(idx)/len(names)%2 == 1 {
			env.Stressors = append(env.Stressors, VRTStressor{Label: "weak-cells", V: *fault.DefaultTransientWeakCells(seed)})
		}
		at := tt
		if edge != 0 {
			at = snap(at, cellEnds(env), edge)
		}
		if err := checkCell(env, r, tret, at); err != nil {
			t.Fatal(err)
		}
	})
}

// TestGridCellsMatchDraws checks every cell of every exactness Env at its
// start, its trusted end, their midpoint and one ulp past the trusted end,
// for a spread of rows, as checkCell does; and it pins the grid's shape:
// every in-window cell wider than twice the edge guard is trusted past its
// start, kitchen-sink's roster compiles to two row-invariant parts, a gate over a
// bound telegraph and an adversary, locate starts every in-window walk at
// or before its cell, and an Env whose roster is too long, or whose gate
// has more episodes than maxCells, gets no grid and still matches the
// reference.
func TestGridCellsMatchDraws(t *testing.T) {
	for name, env := range exactnessEnvs(t) {
		g := env.compiledSchedule()
		if g == nil {
			if name != "long-roster" {
				t.Fatalf("%s: no grid", name)
			}
			continue
		}
		for _, c := range g.cells {
			if c.end-c.start > 2*edgeGuard*env.Duration && c.start < env.Duration && c.until == c.start {
				t.Fatalf("%s: cell [%.17g, %.17g] is trusted at its start only", name, c.start, c.end)
			}
			for _, at := range []float64{c.start, c.until, (c.start + c.until) / 2, math.Nextafter(c.until, math.Inf(1))} {
				i := g.locate(at)
				if i >= len(g.cells) || i > 0 && g.cells[i-1].end > at {
					t.Fatalf("%s t %.17g: locate starts at cell %d, past the cell holding t", name, at, i)
				}
				for row := 0; row < 48; row += 5 {
					for _, tret := range []float64{0.03, 0.2} {
						if err := checkCell(env, row, tret, at); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
					}
				}
			}
		}
	}
	var kinds []partKind
	for _, p := range buildNamed(t, "kitchen-sink").compiledSchedule().parts {
		kinds = append(kinds, p.kind)
		if p.telegraph != (p.kind == partGate) {
			t.Fatalf("kitchen-sink part %v binds telegraph %v", p.kind, p.telegraph)
		}
	}
	if want := []partKind{partCell, partGate, partFrame, partCell}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("kitchen-sink parts %v, want %v", kinds, want)
	}
	fine := buildNamed(t, "vrt-storm")
	gate := fine.Stressors[0].(Gate)
	gate.Period = testWindow / (2 * maxCells)
	fine.Stressors[0] = gate
	if fine.compiledSchedule() != nil {
		t.Fatal("a gate with more episodes than maxCells must be evaluated directly")
	}
	if err := checkAgainstReference(fine, exactnessCases(fine, rand.New(rand.NewSource(37)))); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejectsDegenerateStressors: every configuration here would
// divide by zero or stall inside the decay walk, so Validate must refuse it
// and name the offending stressor.
func TestValidateRejectsDegenerateStressors(t *testing.T) {
	temp := NewTempCycle(testSeed, "bad-cycle", retention.DefaultTempModel(), 85, 8, 0.1, 12)
	aging := AgingRamp{Label: "bad-ramp", Model: retention.DefaultAgingModel(), Years: 8, Window: 0.5, Steps: 16}
	adv := NewPatternAdversary(testSeed, "bad-adversary", 0.05, 0.25, retention.PatternAlternating)
	gate := NewGate(testSeed, "bad-gate", 0.1, 0.5, temp)
	vrt := NewVRTStressor(testSeed, "bad-vrt", stormVRT(testWindow))
	cases := []struct {
		name string
		s    Stressor
		want string
	}{
		{"cycle zero steps", func() Stressor { c := temp; c.Steps = 0; return c }(), "bad-cycle"},
		{"cycle negative steps", func() Stressor { c := temp; c.Steps = -3; return c }(), "bad-cycle"},
		{"cycle zero period", func() Stressor { c := temp; c.Period = 0; return c }(), "bad-cycle"},
		{"cycle NaN period", func() Stressor { c := temp; c.Period = math.NaN(); return c }(), "bad-cycle"},
		{"ramp zero steps", func() Stressor { a := aging; a.Steps = 0; return a }(), "bad-ramp"},
		{"ramp negative window", func() Stressor { a := aging; a.Window = -1; return a }(), "bad-ramp"},
		{"ramp NaN window", func() Stressor { a := aging; a.Window = math.NaN(); return a }(), "bad-ramp"},
		{"adversary zero frame", func() Stressor { a := adv; a.FramePeriod = 0; return a }(), "bad-adversary"},
		{"adversary NaN frame", func() Stressor { a := adv; a.FramePeriod = math.NaN(); return a }(), "bad-adversary"},
		{"gate zero period", func() Stressor { g := gate; g.Period = 0; return g }(), "bad-gate"},
		{"gate NaN period", func() Stressor { g := gate; g.Period = math.NaN(); return g }(), "bad-gate"},
		{"gate nil inner", func() Stressor { g := gate; g.Inner = nil; return g }(), "bad-gate"},
		{"gate degenerate inner", func() Stressor { c := temp; c.Steps = 0; g := gate; g.Inner = c; return g }(), "bad-cycle"},
		{"VRTStressor zero dwell", func() Stressor { v := vrt; v.V.MeanDwell = 0; return v }(), "bad-vrt"},
		{"VRTStressor NaN dwell", func() Stressor { v := vrt; v.V.MeanDwell = math.NaN(); return v }(), "bad-vrt"},
		{"gate over a bad VRT", func() Stressor { v := vrt; v.V.MeanDwell = -1; g := gate; g.Inner = v; return g }(), "bad-vrt"},
		{"nil stressor", nil, "nil stressor"},
	}
	for _, tc := range cases {
		env := &Env{Ref: Ref{Name: "custom"}, Seed: testSeed, Duration: testWindow, Stressors: []Stressor{temp, tc.s}}
		err := env.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
	ok := &Env{Ref: Ref{Name: "custom"}, Seed: testSeed, Duration: testWindow, Stressors: []Stressor{temp, aging, adv, gate, vrt}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("well-formed stressors rejected: %v", err)
	}
}

// BenchmarkEnvDecayFactor times the scalar path on kitchen-sink: spans from
// scattered restore times to later instants, as scrub patrol reads ask.
func BenchmarkEnvDecayFactor(b *testing.B) {
	env, cs := benchDecayCases(b)
	base := retention.ExpDecay{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cs[i%len(cs)]
		env.DecayFactor(c.row, c.tret, c.t0, c.t1, base)
	}
}

func benchDecayCases(b *testing.B) (*Env, []decayCase) {
	env, err := BuildEnv(Ref{Name: "kitchen-sink"}, testWindow, testSeed)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	cs := make([]decayCase, 256)
	for i := range cs {
		t0 := testWindow * rng.Float64()
		cs[i] = decayCase{row: rng.Intn(1024), tret: 0.02 + rng.Float64()*0.5, t0: t0, t1: t0 + (testWindow-t0)*rng.Float64()/4}
	}
	return env, cs
}
