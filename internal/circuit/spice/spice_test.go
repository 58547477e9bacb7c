package spice

import (
	"math"
	"strings"
	"testing"
)

// --- Waveforms ---------------------------------------------------------------

func TestDC(t *testing.T) {
	w := DC(1.2)
	if w(0) != 1.2 || w(1e-6) != 1.2 {
		t.Fatal("DC waveform not constant")
	}
}

func TestRamp(t *testing.T) {
	w := Ramp(0, 2, 1, 2)
	if w(0) != 0 || w(1) != 0 || w(3) != 2 || w(10) != 2 {
		t.Fatal("ramp endpoints wrong")
	}
	if got := w(2); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ramp midpoint = %v, want 1", got)
	}
}

// --- Transient basics ---------------------------------------------------------

// An RC discharge must match the analytic exponential.
func TestRCDischarge(t *testing.T) {
	const (
		r   = 1e3
		c   = 1e-12
		v0  = 1.0
		tau = r * c
	)
	ckt := New()
	ckt.C("n", "0", c)
	ckt.R("n", "0", r)
	ckt.SetIC("n", v0)
	res, err := ckt.Transient(TransientOpts{TStop: 5 * tau, H: tau / 500, Probes: []string{"n"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.5, 1, 2, 4} {
		tt := frac * tau
		got, err := res.At("n", tt)
		if err != nil {
			t.Fatal(err)
		}
		want := v0 * math.Exp(-tt/tau)
		if math.Abs(got-want) > 0.01*v0 {
			t.Errorf("V(%vtau) = %v, want %v", frac, got, want)
		}
	}
}

// Charge sharing between two capacitors through a resistor must conserve
// charge: Vfinal = (C1 V1 + C2 V2) / (C1 + C2).
func TestChargeConservation(t *testing.T) {
	const (
		c1, c2 = 24e-15, 45e-15
		v1, v2 = 1.2, 0.6
		r      = 10e3
	)
	ckt := New()
	ckt.C("a", "0", c1)
	ckt.C("b", "0", c2)
	ckt.R("a", "b", r)
	ckt.SetIC("a", v1)
	ckt.SetIC("b", v2)
	tau := r * c1 * c2 / (c1 + c2)
	res, err := ckt.Transient(TransientOpts{TStop: 20 * tau, H: tau / 200, Probes: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	want := (c1*v1 + c2*v2) / (c1 + c2)
	fa, _ := res.Final("a")
	fb, _ := res.Final("b")
	if math.Abs(fa-want) > 1e-3 || math.Abs(fb-want) > 1e-3 {
		t.Fatalf("final voltages %v, %v; want %v", fa, fb, want)
	}
}

func TestVSourceDrivesNode(t *testing.T) {
	ckt := New()
	ckt.V("src", DC(0.6))
	ckt.R("src", "out", 1e3)
	ckt.C("out", "0", 1e-12)
	res, err := ckt.Transient(TransientOpts{TStop: 20e-9, H: 10e-12, Probes: []string{"out", "src"}})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := res.Final("out")
	if math.Abs(out-0.6) > 1e-3 {
		t.Fatalf("out = %v, want 0.6", out)
	}
}

func TestCapDrivenInjectsCoupling(t *testing.T) {
	// A floating node coupled to a stepping source through CDriven, with a
	// grounding cap, sees the capacitive divider voltage.
	const cc, cg = 1e-15, 3e-15
	ckt := New()
	ckt.CDriven("n", cc, Ramp(0, 1, 1e-9, 0.1e-9))
	ckt.C("n", "0", cg)
	res, err := ckt.Transient(TransientOpts{TStop: 3e-9, H: 5e-12, Probes: []string{"n"}})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := res.Final("n")
	want := cc / (cc + cg) // 0.25
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("coupled divider = %v, want %v", got, want)
	}
}

// --- MOSFET ---------------------------------------------------------------------

func TestMOSIdsRegions(t *testing.T) {
	p := MOSParams{Type: NMOS, Beta: 100e-6, Vt: 0.4, Lambda: 0}
	// Cutoff.
	if i, gm, gds := p.ids(0.3, 1.0); i != 0 || gm != 0 || gds != 0 {
		t.Fatal("cutoff region must carry no current")
	}
	// Triode: i = beta(vov*vds - vds^2/2).
	i, _, _ := p.ids(1.0, 0.2)
	want := 100e-6 * (0.6*0.2 - 0.02)
	if math.Abs(i-want) > 1e-12 {
		t.Fatalf("triode current %v, want %v", i, want)
	}
	// Saturation: i = beta/2 vov^2.
	i, _, _ = p.ids(1.0, 2.0)
	want = 50e-6 * 0.36
	if math.Abs(i-want) > 1e-12 {
		t.Fatalf("saturation current %v, want %v", i, want)
	}
	// Continuity at the triode/saturation boundary.
	iT, _, _ := p.ids(1.0, 0.6-1e-9)
	iS, _, _ := p.ids(1.0, 0.6+1e-9)
	if math.Abs(iT-iS) > 1e-10 {
		t.Fatalf("discontinuity at vds = vov: %v vs %v", iT, iS)
	}
}

// An NMOS source follower: out settles near Vg - Vt.
func TestNMOSDrivenGateFollower(t *testing.T) {
	ckt := New()
	ckt.V("vdd", DC(1.8))
	ckt.MOSDriven("vdd", "out", MOSParams{Type: NMOS, Beta: 200e-6, Vt: 0.4, Lambda: 0.01}, DC(1.2))
	ckt.C("out", "0", 1e-12)
	ckt.R("out", "0", 1e7) // tiny load so the follower dominates
	res, err := ckt.Transient(TransientOpts{TStop: 200e-9, H: 100e-12, Probes: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := res.Final("out")
	if got < 0.7 || got > 0.82 {
		t.Fatalf("follower output %v, want ~Vg-Vt = 0.8", got)
	}
}

// A PMOS passing the rail: with gate at 0, a PMOS from vdd charges the
// output all the way to vdd.
func TestPMOSPassesRail(t *testing.T) {
	ckt := New()
	ckt.V("vdd", DC(1.2))
	ckt.MOSDriven("out", "vdd", MOSParams{Type: PMOS, Beta: 200e-6, Vt: 0.35, Lambda: 0.01}, DC(0))
	ckt.C("out", "0", 1e-12)
	res, err := ckt.Transient(TransientOpts{TStop: 100e-9, H: 50e-12, Probes: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := res.Final("out")
	if math.Abs(got-1.2) > 0.01 {
		t.Fatalf("PMOS did not pass the rail: %v", got)
	}
}

// A node-gate NMOS inverter: low input -> high output, high input -> low.
func TestNodeGateInverter(t *testing.T) {
	build := func(vin float64) *Circuit {
		ckt := New()
		ckt.V("vdd", DC(1.2))
		ckt.V("in", DC(vin))
		ckt.R("vdd", "out", 50e3)
		ckt.MOS("out", "in", "0", MOSParams{Type: NMOS, Beta: 500e-6, Vt: 0.4, Lambda: 0.01})
		ckt.C("out", "0", 0.1e-12)
		ckt.SetIC("out", 1.2)
		return ckt
	}
	resLo, err := build(0).Transient(TransientOpts{TStop: 100e-9, H: 100e-12, Probes: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	resHi, err := build(1.2).Transient(TransientOpts{TStop: 100e-9, H: 100e-12, Probes: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := resLo.Final("out")
	hi, _ := resHi.Final("out")
	if lo < 1.1 {
		t.Fatalf("output with low input = %v, want ~1.2", lo)
	}
	if hi > 0.2 {
		t.Fatalf("output with high input = %v, want near 0", hi)
	}
}

func TestSatSwitchLimitsCurrent(t *testing.T) {
	// Big voltage across the switch: current limited near idsat, so the
	// capacitor charges roughly linearly at idsat/C.
	const (
		idsat = 1e-6
		ron   = 10e3
		c     = 100e-15
	)
	ckt := New()
	ckt.V("src", DC(1.0))
	ckt.SatSwitch("src", "out", ron, idsat, 0)
	ckt.C("out", "0", c)
	res, err := ckt.Transient(TransientOpts{TStop: 20e-9, H: 10e-12, Probes: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	// After 10 ns at ~tanh(1/0.01)->idsat, dV ~ idsat*t/C = 0.1 V.
	got, _ := res.At("out", 10e-9)
	if got < 0.05 || got > 0.15 {
		t.Fatalf("saturated slewing gave %v after 10 ns, want ~0.1", got)
	}
}

func TestSatSwitchOhmicForSmallSignals(t *testing.T) {
	// Small voltage difference: behaves like ron.
	const (
		idsat = 1e-3 // scale >> voltages involved
		ron   = 1e3
		c     = 1e-12
	)
	ckt := New()
	ckt.V("src", DC(0.01))
	ckt.SatSwitch("src", "out", ron, idsat, 0)
	ckt.C("out", "0", c)
	tau := ron * c
	res, err := ckt.Transient(TransientOpts{TStop: 10 * tau, H: tau / 100, Probes: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := res.At("out", tau)
	want := 0.01 * (1 - math.Exp(-1))
	if math.Abs(got-want) > 0.001 {
		t.Fatalf("ohmic response %v, want %v", got, want)
	}
}

// --- Engine plumbing -------------------------------------------------------------

func TestTransientOptionValidation(t *testing.T) {
	ckt := New()
	ckt.R("a", "0", 1e3)
	if _, err := ckt.Transient(TransientOpts{TStop: 0, H: 1e-12}); err == nil {
		t.Fatal("zero TStop must be rejected")
	}
	if _, err := ckt.Transient(TransientOpts{TStop: 1e-9, H: 0}); err == nil {
		t.Fatal("zero H must be rejected")
	}
	if _, err := ckt.Transient(TransientOpts{TStop: 1e-9, H: 1e-12, Probes: []string{"nope"}}); err == nil {
		t.Fatal("unknown probe must be rejected")
	}
}

func TestEmptyCircuit(t *testing.T) {
	if _, err := New().Transient(TransientOpts{TStop: 1e-9, H: 1e-12}); err == nil {
		t.Fatal("empty circuit must be rejected")
	}
}

func TestGroundAliases(t *testing.T) {
	ckt := New()
	if ckt.Node("0") != -1 || ckt.Node("gnd") != -1 {
		t.Fatal("ground aliases broken")
	}
	if ckt.Node("a") != ckt.Node("a") {
		t.Fatal("node interning broken")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{
		Times:  []float64{0, 1, 2},
		Probes: map[string][]float64{"n": {0, 0.5, 1.0}},
	}
	if v, err := r.At("n", 1.1); err != nil || v != 0.5 {
		t.Fatalf("At: %v, %v", v, err)
	}
	if _, err := r.At("x", 0); err == nil {
		t.Fatal("unknown probe must error")
	}
	tc, err := r.FirstCrossing("n", 0.4, true)
	if err != nil || tc != 1 {
		t.Fatalf("FirstCrossing: %v, %v", tc, err)
	}
	if _, err := r.FirstCrossing("n", 2.0, true); err == nil {
		t.Fatal("never-crossing level must error")
	}
	if v, err := r.Final("n"); err != nil || v != 1.0 {
		t.Fatalf("Final: %v, %v", v, err)
	}
}

func TestDevicePanicsOnBadValues(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		f()
	}
	ckt := New()
	mustPanic("R", func() { ckt.R("a", "b", 0) })
	mustPanic("C", func() { ckt.C("a", "b", -1) })
	mustPanic("CDriven", func() { ckt.CDriven("a", 0, DC(0)) })
	mustPanic("MOS", func() { ckt.MOS("a", "b", "c", MOSParams{}) })
	mustPanic("SatSwitch", func() { ckt.SatSwitch("a", "b", 0, 1, 0) })
}

// The banded path (large linear circuit) agrees with physics: a long RC
// ladder driven at one end settles every node to the source voltage.
func TestBandedLadderSettles(t *testing.T) {
	ckt := New()
	ckt.V("n0", DC(1))
	prev := "n0"
	const n = 100
	for i := 1; i <= n; i++ {
		name := "n" + itoa(i)
		ckt.R(prev, name, 100)
		ckt.C(name, "0", 1e-15)
		prev = name
	}
	if NewSolver(ckt).autoBackend() != BackendBanded {
		t.Fatalf("test circuit does not exercise the banded path: %d nodes", ckt.NumNodes())
	}
	res, err := ckt.Transient(TransientOpts{TStop: 50e-12 * n, H: 10e-12, Probes: []string{prev}})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := res.Final(prev)
	if math.Abs(got-1) > 0.01 {
		t.Fatalf("ladder end settles to %v, want 1", got)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b strings.Builder
	var digits []byte
	for i > 0 {
		digits = append(digits, byte('0'+i%10))
		i /= 10
	}
	for k := len(digits) - 1; k >= 0; k-- {
		b.WriteByte(digits[k])
	}
	return b.String()
}
