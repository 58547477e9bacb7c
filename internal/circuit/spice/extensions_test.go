package spice

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestCurrentSourceChargesCap(t *testing.T) {
	// 1 uA into 1 pF for 10 ns: dV = I*t/C = 10 mV.
	ckt := New()
	ckt.I("0", "n", DC(1e-6))
	ckt.C("n", "0", 1e-12)
	res, err := ckt.Transient(TransientOpts{TStop: 10e-9, H: 10e-12, Probes: []string{"n"}})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := res.Final("n")
	if math.Abs(got-0.01) > 1e-4 {
		t.Fatalf("V = %v, want 0.01", got)
	}
}

func TestTrapezoidalMoreAccurateAtLargeSteps(t *testing.T) {
	// RC discharge with a coarse step: the trapezoidal rule must land closer
	// to the analytic exponential than backward Euler.
	const (
		r, c = 1e3, 1e-12
		tau  = r * c
		v0   = 1.0
	)
	run := func(m Method) float64 {
		ckt := New()
		ckt.C("n", "0", c)
		ckt.R("n", "0", r)
		ckt.SetIC("n", v0)
		if err := ckt.SetMethod(m); err != nil {
			t.Fatal(err)
		}
		res, err := ckt.Transient(TransientOpts{TStop: 2 * tau, H: tau / 4, Probes: []string{"n"}})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := res.Final("n")
		return got
	}
	want := v0 * math.Exp(-2)
	be := math.Abs(run(BackwardEuler) - want)
	tr := math.Abs(run(Trapezoidal) - want)
	if tr >= be {
		t.Fatalf("trapezoidal error %v not below backward Euler %v", tr, be)
	}
	if tr > 0.01 {
		t.Fatalf("trapezoidal error %v too large", tr)
	}
}

func TestTrapezoidalMatchesBEAtFineSteps(t *testing.T) {
	const (
		r, c = 10e3, 45e-15
		tau  = r * c
	)
	run := func(m Method) float64 {
		ckt := New()
		ckt.V("src", DC(1))
		ckt.R("src", "n", r)
		ckt.C("n", "0", c)
		if err := ckt.SetMethod(m); err != nil {
			t.Fatal(err)
		}
		res, err := ckt.Transient(TransientOpts{TStop: 3 * tau, H: tau / 300, Probes: []string{"n"}})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := res.At("n", tau)
		return got
	}
	if d := math.Abs(run(BackwardEuler) - run(Trapezoidal)); d > 2e-3 {
		t.Fatalf("methods diverge by %v at fine steps", d)
	}
}

func TestSetMethodRejectsUnknown(t *testing.T) {
	if err := New().SetMethod(Method(99)); err == nil {
		t.Fatal("unknown method must be rejected")
	}
}

func TestExportDeck(t *testing.T) {
	ckt := New()
	ckt.V("vdd", DC(1.2))
	ckt.R("vdd", "out", 1e3)
	ckt.C("out", "0", 1e-12)
	ckt.CDriven("out", 2e-15, DC(0.5))
	ckt.I("0", "out", DC(1e-6))
	ckt.SatSwitch("x", "y", 1e3, 1e-6, 0)
	ckt.MOS("out", "vdd", "0", MOSParams{Type: NMOS, Beta: 1e-4, Vt: 0.4})
	ckt.MOSDriven("y", "0", MOSParams{Type: PMOS, Beta: 1e-4, Vt: 0.4}, DC(0))
	ckt.SetIC("out", 0.3)

	var buf bytes.Buffer
	if err := ckt.ExportDeck(&buf, "unit test deck"); err != nil {
		t.Fatal(err)
	}
	deck := buf.String()
	for _, want := range []string{
		"* unit test deck",
		"R1 vdd out 1000",
		"C1 out 0 1e-12",
		"V1 vdd 0 DC 1.2",
		"I1 0 out DC 1e-06",
		"S1 x y",
		"M1 out vdd 0 0 NMOS",
		"M2 y driven 0 0 PMOS",
		".IC V(out)=0.3",
		".END",
	} {
		if !strings.Contains(deck, want) {
			t.Errorf("deck missing %q:\n%s", want, deck)
		}
	}
}
