package spice

import (
	"fmt"
	"math"
)

// --- Resistor -------------------------------------------------------------

type resistor struct {
	a, b int
	g    float64
}

func (r *resistor) stampConst(c *stampCtx) { c.addG(r.a, r.b, r.g) }
func (r *resistor) nodes() []int           { return []int{r.a, r.b} }
func (r *resistor) linear() bool           { return true }

// R adds a resistor of ohms between nodes a and b.
func (ckt *Circuit) R(a, b string, ohms float64) {
	if ohms <= 0 {
		panic(fmt.Sprintf("spice: resistor %s-%s must be positive, got %g", a, b, ohms))
	}
	r := &resistor{ckt.Node(a), ckt.Node(b), 1 / ohms}
	ckt.add(r, r, nil, nil)
}

// --- Capacitor ------------------------------------------------------------

// Backward-Euler companion: i = C/h * (v - vPrev), stamped as a conductance
// C/h (constant per step configuration) in parallel with a history current
// source (refreshed per step).
type capacitor struct {
	a, b int
	cap  float64
	idx  int // slot in the solver's trapezoidal current-memory slice
}

func (d *capacitor) stampConst(c *stampCtx) {
	g := d.cap / c.h
	if c.method == Trapezoidal {
		// Trapezoidal companion: i_n = (2C/h)*vd_n - (2C/h*vd_(n-1) + i_(n-1)).
		g = 2 * d.cap / c.h
	}
	c.addG(d.a, d.b, g)
}

func (d *capacitor) stampStep(c *stampCtx) {
	vPrev := c.voltPrev(d.a) - c.voltPrev(d.b)
	if c.method == Trapezoidal {
		g := 2 * d.cap / c.h
		c.addI(d.b, d.a, g*vPrev+c.capI[d.idx])
		return
	}
	g := d.cap / c.h
	// History term: a source g*vPrev flowing from b into a keeps the
	// capacitor voltage continuous.
	c.addI(d.b, d.a, g*vPrev)
}
func (d *capacitor) nodes() []int { return []int{d.a, d.b} }
func (d *capacitor) linear() bool { return true }

// C adds a capacitor of farads between nodes a and b.
func (ckt *Circuit) C(a, b string, farads float64) {
	if farads <= 0 {
		panic(fmt.Sprintf("spice: capacitor %s-%s must be positive, got %g", a, b, farads))
	}
	c := &capacitor{a: ckt.Node(a), b: ckt.Node(b), cap: farads}
	ckt.add(c, c, c, nil)
}

// --- Capacitor to a driven waveform ----------------------------------------

// capDriven is a capacitor whose far plate is an ideal driven voltage
// (e.g. bitline-to-wordline parasitic against the wordline driver). Using a
// waveform instead of a shared node keeps the matrix banded when one line
// couples to many others.
type capDriven struct {
	a    int
	cap  float64
	wave Waveform
}

func (d *capDriven) stampConst(c *stampCtx) {
	if d.a >= 0 {
		c.m.AddAt(d.a, d.a, d.cap/c.h)
	}
}

func (d *capDriven) stampStep(c *stampCtx) {
	g := d.cap / c.h
	// i(out of a) = g*(va - vDrv(t)) - g*(vaPrev - vDrv(t-h)).
	// Move the known terms to the RHS as a source into a.
	known := g*d.wave(c.t) + g*(c.voltPrev(d.a)-d.wave(c.t-c.h))
	c.addI(-1, d.a, known)
}
func (d *capDriven) nodes() []int { return []int{d.a} }
func (d *capDriven) linear() bool { return true }

// CDriven adds a capacitor from node a to an ideally driven waveform.
func (ckt *Circuit) CDriven(a string, farads float64, wave Waveform) {
	if farads <= 0 {
		panic(fmt.Sprintf("spice: driven capacitor at %s must be positive, got %g", a, farads))
	}
	d := &capDriven{ckt.Node(a), farads, wave}
	ckt.add(d, d, d, nil)
}

// --- Voltage source (Norton form) ------------------------------------------

// vsource drives node a toward wave(t) through a small series resistance.
// The Norton form keeps every matrix diagonal positive.
type vsource struct {
	a    int
	g    float64
	wave Waveform
}

func (d *vsource) stampConst(c *stampCtx) {
	if d.a >= 0 {
		c.m.AddAt(d.a, d.a, d.g)
	}
}

func (d *vsource) stampStep(c *stampCtx) { c.addI(-1, d.a, d.g*d.wave(c.t)) }
func (d *vsource) nodes() []int          { return []int{d.a} }
func (d *vsource) linear() bool          { return true }

// DefaultSourceR is the series resistance of voltage sources: negligible
// against the kilo-ohm impedances of DRAM netlists.
const DefaultSourceR = 0.1

// V drives node a with the waveform through DefaultSourceR ohms.
func (ckt *Circuit) V(a string, wave Waveform) {
	d := &vsource{ckt.Node(a), 1 / DefaultSourceR, wave}
	ckt.add(d, d, d, nil)
}

// --- Level-1 MOSFET ----------------------------------------------------------

// MOSType selects the device polarity.
type MOSType int

// MOSFET polarities.
const (
	NMOS MOSType = iota
	PMOS
)

// MOSParams are the level-1 (Shichman-Hodges) device parameters.
type MOSParams struct {
	Type   MOSType
	Beta   float64 // process transconductance * W/L (A/V^2)
	Vt     float64 // threshold voltage magnitude (V)
	Lambda float64 // channel-length modulation (1/V)
}

// ids returns the drain current and its partial derivatives for an N-type
// device with vds >= 0 (callers handle P-type mirroring and source/drain
// symmetry).
func (p MOSParams) ids(vgs, vds float64) (i, gm, gds float64) {
	vov := vgs - p.Vt
	if vov <= 0 {
		return 0, 0, 0
	}
	lam := 1 + p.Lambda*vds
	if vds < vov {
		// Linear (triode) region.
		i = p.Beta * (vov*vds - vds*vds/2) * lam
		gm = p.Beta * vds * lam
		gds = p.Beta*(vov-vds)*lam + p.Beta*(vov*vds-vds*vds/2)*p.Lambda
	} else {
		// Saturation.
		i = p.Beta / 2 * vov * vov * lam
		gm = p.Beta * vov * lam
		gds = p.Beta / 2 * vov * vov * p.Lambda
	}
	return i, gm, gds
}

// mosfet is a level-1 MOSFET. The gate is either a circuit node (gate >= 0,
// gateWave nil) or an ideally driven waveform (gateWave non-nil). Gate
// current is zero in both cases.
type mosfet struct {
	d, g, s  int
	gateWave Waveform
	p        MOSParams
}

func (m *mosfet) gateV(c *stampCtx) float64 {
	if m.gateWave != nil {
		return m.gateWave(c.t)
	}
	return c.volt(m.g)
}

// stamp linearizes the device around the current Newton iterate.
//
// Derivation: work in a normalized space where all voltages are multiplied
// by sign (+1 NMOS, -1 PMOS) and source/drain are relabeled so vds' >= 0.
// With i defined as the real current flowing from the normalized drain node
// D* to the normalized source node S*, the chain rule gives
//
//	di/dv(D*) = gds', di/dv(S*) = -(gds'+gm'), di/dv(G) = gm'
//
// with gds', gm' evaluated in normalized space (the sign squared cancels),
// and the residual current Ieq = i - gds'*vds_real' - gm'*vgs_real' where
// the "real'" voltages are the real node voltages of D*, S*, G.
func (m *mosfet) stampIter(c *stampCtx) {
	vd, vs := c.volt(m.d), c.volt(m.s)
	vg := m.gateV(c)

	sign := 1.0
	if m.p.Type == PMOS {
		sign = -1.0
	}
	nvd, nvs, nvg := sign*vd, sign*vs, sign*vg
	dN, sN := m.d, m.s
	if nvd < nvs {
		nvd, nvs = nvs, nvd
		dN, sN = sN, dN
	}
	vgs := nvg - nvs
	vds := nvd - nvs
	i0, gm, gds := m.p.ids(vgs, vds)
	iReal := sign * i0 // current D* -> S* in real space

	// Real node voltages of the normalized terminals.
	vDr, vSr := c.volt(dN), c.volt(sN)

	// Matrix stamps: current from D* to S* = iReal + gds*d(vD*-vS*) + gm*d(vG-vS*).
	c.addM(dN, dN, gds)
	c.addM(dN, sN, -(gds + gm))
	c.addM(sN, dN, -gds)
	c.addM(sN, sN, gds+gm)

	ieq := iReal - gds*(vDr-vSr) - gm*(vg-vSr)
	if m.gateWave == nil && m.g >= 0 {
		c.addM(dN, m.g, gm)
		c.addM(sN, m.g, -gm)
	} else {
		// Driven or grounded gate: the gm*vg term is known; fold it into the
		// residual.
		ieq += gm * vg
	}
	c.addI(dN, sN, ieq)
}

func (m *mosfet) nodes() []int {
	if m.gateWave != nil {
		return []int{m.d, m.s}
	}
	return []int{m.d, m.g, m.s}
}
func (m *mosfet) linear() bool { return false }

// MOS adds a MOSFET with drain d, gate g, and source s as circuit nodes.
func (ckt *Circuit) MOS(d, g, s string, p MOSParams) {
	validateMOS(p)
	m := &mosfet{d: ckt.Node(d), g: ckt.Node(g), s: ckt.Node(s), p: p}
	ckt.add(m, nil, nil, m)
}

// MOSDriven adds a MOSFET between drain d and source s whose gate is driven
// by an ideal waveform.
func (ckt *Circuit) MOSDriven(d, s string, p MOSParams, gate Waveform) {
	validateMOS(p)
	m := &mosfet{d: ckt.Node(d), g: -1, s: ckt.Node(s), gateWave: gate, p: p}
	ckt.add(m, nil, nil, m)
}

func validateMOS(p MOSParams) {
	if p.Beta <= 0 || p.Vt <= 0 || p.Lambda < 0 {
		panic(fmt.Sprintf("spice: bad MOS params %+v", p))
	}
}

// --- Saturating access switch -------------------------------------------------

// satSwitch models a DRAM cell access device during charge sharing: ohmic
// for small terminal differences, current-limited at Idsat for large ones,
// i(v) = Idsat * tanh(v / (Idsat*Ron)). It opens (conducts ~0) before onAt.
// Its linearized stamps are symmetric, so it is safe for the banded no-pivot
// solver that large array netlists use.
type satSwitch struct {
	a, b  int
	ron   float64
	idsat float64
	onAt  float64
}

func (d *satSwitch) stampIter(c *stampCtx) {
	if c.t < d.onAt {
		c.addG(d.a, d.b, 1e-12)
		return
	}
	v := c.volt(d.a) - c.volt(d.b)
	scale := d.idsat * d.ron
	th := math.Tanh(v / scale)
	i := d.idsat * th
	g := (1 - th*th) / d.ron
	// Keep a conductance floor so the Newton matrix stays well conditioned
	// deep in saturation.
	if g < 1e-9 {
		g = 1e-9
	}
	c.addG(d.a, d.b, g)
	c.addI(d.a, d.b, i-g*v)
}
func (d *satSwitch) nodes() []int { return []int{d.a, d.b} }
func (d *satSwitch) linear() bool { return false }

// SatSwitch adds a saturating access switch between a and b that closes at
// time onAt with linear-region resistance ron and saturation current idsat.
func (ckt *Circuit) SatSwitch(a, b string, ron, idsat, onAt float64) {
	if ron <= 0 || idsat <= 0 {
		panic(fmt.Sprintf("spice: sat switch %s-%s needs positive ron and idsat", a, b))
	}
	d := &satSwitch{ckt.Node(a), ckt.Node(b), ron, idsat, onAt}
	ckt.add(d, nil, nil, d)
}
