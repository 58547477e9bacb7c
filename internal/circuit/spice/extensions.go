package spice

import (
	"fmt"
	"io"
	"sort"
)

// --- Current source ------------------------------------------------------------

type isource struct {
	a, b int
	wave Waveform
}

func (d *isource) stampStep(c *stampCtx) { c.addI(d.a, d.b, d.wave(c.t)) }
func (d *isource) nodes() []int          { return []int{d.a, d.b} }
func (d *isource) linear() bool          { return true }

// I adds an independent current source driving wave(t) amperes from node a
// into node b.
func (ckt *Circuit) I(a, b string, wave Waveform) {
	d := &isource{ckt.Node(a), ckt.Node(b), wave}
	ckt.add(d, nil, d, nil)
}

// --- Integration method --------------------------------------------------------

// Method selects the numerical integration scheme for capacitors.
type Method int

// Supported integration methods.
const (
	// BackwardEuler is robust and strongly damped; the default.
	BackwardEuler Method = iota
	// Trapezoidal is second-order accurate; preferable for smooth RC
	// transients at larger steps, at the cost of possible ringing on
	// discontinuities.
	Trapezoidal
)

// SetMethod selects the capacitor integration scheme for subsequent
// Transient runs.
func (ckt *Circuit) SetMethod(m Method) error {
	switch m {
	case BackwardEuler, Trapezoidal:
		ckt.method = m
		return nil
	default:
		return fmt.Errorf("spice: unknown integration method %d", m)
	}
}

// --- SPICE deck export ----------------------------------------------------------

// ExportDeck writes the circuit as a SPICE-format netlist deck: the standard
// interchange format, so the reference netlists can be re-simulated with an
// external simulator. Waveform-driven elements export their value at t = 0
// with a comment noting the time dependence (decks are static text; drive
// shapes must be re-declared in the target tool).
func (ckt *Circuit) ExportDeck(w io.Writer, title string) error {
	if _, err := fmt.Fprintf(w, "* %s\n* exported by vrldram mini-SPICE\n", title); err != nil {
		return err
	}
	name := func(n int) string {
		if n < 0 {
			return "0"
		}
		return ckt.nodeOf[n]
	}
	counts := map[string]int{}
	next := func(prefix string) string {
		counts[prefix]++
		return fmt.Sprintf("%s%d", prefix, counts[prefix])
	}
	for _, d := range ckt.devices {
		var err error
		switch dev := d.(type) {
		case *resistor:
			_, err = fmt.Fprintf(w, "%s %s %s %.6g\n", next("R"), name(dev.a), name(dev.b), 1/dev.g)
		case *capacitor:
			_, err = fmt.Fprintf(w, "%s %s %s %.6g\n", next("C"), name(dev.a), name(dev.b), dev.cap)
		case *capDriven:
			_, err = fmt.Fprintf(w, "%s %s %s %.6g ; far plate driven, v(0)=%.6g\n",
				next("C"), name(dev.a), "0", dev.cap, dev.wave(0))
		case *vsource:
			_, err = fmt.Fprintf(w, "%s %s 0 DC %.6g ; Rs=%.4g, time-dependent drive\n",
				next("V"), name(dev.a), dev.wave(0), 1/dev.g)
		case *isource:
			_, err = fmt.Fprintf(w, "%s %s %s DC %.6g ; time-dependent drive\n",
				next("I"), name(dev.a), name(dev.b), dev.wave(0))
		case *satSwitch:
			_, err = fmt.Fprintf(w, "%s %s %s ; sat access ron=%.4g idsat=%.4g on@%.4gs\n",
				next("S"), name(dev.a), name(dev.b), dev.ron, dev.idsat, dev.onAt)
		case *mosfet:
			typ := "NMOS"
			if dev.p.Type == PMOS {
				typ = "PMOS"
			}
			gate := "driven"
			if dev.gateWave == nil {
				gate = name(dev.g)
			}
			_, err = fmt.Fprintf(w, "%s %s %s %s 0 %s ; beta=%.4g vt=%.4g lambda=%.4g\n",
				next("M"), name(dev.d), gate, name(dev.s), typ, dev.p.Beta, dev.p.Vt, dev.p.Lambda)
		default:
			_, err = fmt.Fprintf(w, "* unknown device %T\n", d)
		}
		if err != nil {
			return err
		}
	}
	// Initial conditions.
	nodes := make([]int, 0, len(ckt.ic))
	for n := range ckt.ic {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		if _, err := fmt.Fprintf(w, ".IC V(%s)=%.6g\n", name(n), ckt.ic[n]); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, ".END")
	return err
}
