// Package netlists builds the reference circuits of the paper's Figure 2
// from a device parameter set, for simulation with the mini-SPICE engine:
//
//   - the bitline equalization circuit (Fig. 2a), used by Figure 5;
//   - the charge-sharing cell array with bitline-to-bitline and
//     bitline-to-wordline parasitic coupling (Fig. 2b/2c), used by Table 1;
//   - the latch-based voltage sense amplifier with cell restore path
//     (Fig. 2d), used to validate the post-sensing model behind Figure 1a.
package netlists

import (
	"fmt"
	"time"

	"vrldram/internal/circuit/spice"
	"vrldram/internal/device"
)

// mosLambda is the channel-length modulation used for all transistors; the
// analytical model neglects it, so keeping it small maintains comparability.
const mosLambda = 0.02

// Equalization builds the Fig. 2a circuit: a bitline pair at full swing
// (bl at Vdd, blb at Vss) driven toward Veq through the M2/M3 NMOS devices
// when the EQ signal asserts at t=0. Probe nodes: "bl", "blb".
func Equalization(p device.Params) *spice.Circuit {
	ckt := spice.New()
	veq := p.Veq()

	// Equalization voltage rail.
	ckt.V("veqn", spice.DC(veq))

	nmos := spice.MOSParams{Type: spice.NMOS, Beta: p.BetaN, Vt: p.Vtn, Lambda: mosLambda}
	eqGate := spice.Ramp(0, p.Vg, 0, 20e-12)

	// Bitline Bi: Cbl precharged to Vdd, reached through Rbl, equalized by M2.
	ckt.C("bl", "0", p.CblSeg())
	ckt.R("bl", "blx", p.Rbl)
	ckt.MOSDriven("blx", "veqn", nmos, eqGate)
	ckt.SetIC("bl", p.Vdd)
	ckt.SetIC("blx", p.Vdd)

	// Complementary bitline: Cbl at Vss, equalized by M3.
	ckt.C("blb", "0", p.CblSeg())
	ckt.R("blb", "blbx", p.Rbl)
	ckt.MOSDriven("blbx", "veqn", nmos, eqGate)
	ckt.SetIC("blb", p.Vss)
	ckt.SetIC("blbx", p.Vss)

	ckt.SetIC("veqn", veq)
	return ckt
}

// ChargeSharingOpts configures the Fig. 2b/2c array netlist.
type ChargeSharingOpts struct {
	Geom    device.BankGeometry
	Pattern string // "zeros", "ones", "alt", "random" (cell data)
}

// BitlineName returns the probe name of bitline i.
func BitlineName(i int) string { return fmt.Sprintf("bl%d", i) }

// CellName returns the probe name of the cell on bitline i.
func CellName(i int) string { return fmt.Sprintf("cell%d", i) }

// SenseNodeName returns the probe name of the bank-edge sensing point of
// bitline i (the far end of the global routing ladder).
func SenseNodeName(i int) string { return fmt.Sprintf("sa%d", i) }

// CsaNode is the sense-point junction capacitance.
const CsaNode = 2e-15

// ChargeSharing builds the Fig. 2b/2c array: one cell per bitline sharing
// charge with its (equalized) bitline after the wordline asserts, including
// Cbb neighbor coupling and Cbw coupling to the ramping wordline. The
// wordline is a distributed RC line: the access device of column i turns on
// after that column's Elmore delay, which is how column count enters the
// pre-sensing latency (Table 1).
//
// The netlist is linear (access devices are resistive switches at their
// charge-sharing effective resistance), so banks of any size simulate
// through the banded solver.
func ChargeSharing(p device.Params, opts ChargeSharingOpts) (*spice.Circuit, error) {
	if err := opts.Geom.Validate(); err != nil {
		return nil, err
	}
	n := opts.Geom.Cols
	bits, err := patternBits(opts.Pattern, n)
	if err != nil {
		return nil, err
	}
	ckt := spice.New()
	veq := p.Veq()
	rGlobal := p.RGlobal(opts.Geom.Rows)
	cGlobal := p.CGlobal(opts.Geom.Rows)

	// Elmore delay of the wordline at column k (uniform distributed line):
	// tau(k) = Rwl*Cwl*(k*n - k^2/2) per unit; full-line delay matches
	// device.WordlineDelay.
	elmore := func(k int) float64 {
		kk := float64(k + 1)
		nn := float64(n)
		return p.RwlPerCol * p.CwlPerCol * (kk*nn - kk*kk/2)
	}
	wlRise := 2 * elmore(n-1)
	if wlRise <= 0 {
		wlRise = 10e-12
	}

	for i := 0; i < n; i++ {
		cell := CellName(i)
		mid := fmt.Sprintf("mid%d", i)
		bl := BitlineName(i)

		ckt.C(cell, "0", p.Cs)
		v0 := p.Vss
		if bits[i] {
			v0 = p.Vdd
		}
		ckt.SetIC(cell, v0)
		ckt.SetIC(mid, v0)

		// Access device: closes when the wordline reaches this column;
		// ohmic for small cell-bitline differences, current-limited at
		// AccessIdsat for large ones (the regime a freshly opened row sits
		// in while its full-swing cells dump charge onto half-Vdd bitlines).
		ckt.SatSwitch(cell, mid, p.RonAccess, p.AccessIdsat, elmore(i))
		ckt.R(mid, bl, p.Rbl)

		ckt.C(bl, "0", p.CblSeg())
		ckt.SetIC(bl, veq)

		// Bitline-to-wordline parasitic against the ramping wordline driver.
		wl := spice.Ramp(0, p.Vg, 0, wlRise)
		ckt.CDriven(bl, p.Cbw, wl)

		// Global routing to the bank-edge sensing point: a two-segment RC
		// ladder. The analytical model lumps this as pure resistance; the
		// wire capacitance modeled here is why transient simulation reports
		// longer pre-sensing than the model for large banks (Table 1).
		gmid := fmt.Sprintf("gmid%d", i)
		sa := SenseNodeName(i)
		ckt.R(bl, gmid, rGlobal/2)
		ckt.C(gmid, "0", cGlobal)
		ckt.R(gmid, sa, rGlobal/2)
		ckt.C(sa, "0", CsaNode)
		ckt.SetIC(gmid, veq)
		ckt.SetIC(sa, veq)
	}
	// Neighbor coupling.
	for i := 0; i+1 < n; i++ {
		ckt.C(BitlineName(i), BitlineName(i+1), p.Cbb)
	}
	return ckt, nil
}

func patternBits(pattern string, n int) ([]bool, error) {
	out := make([]bool, n)
	switch pattern {
	case "zeros":
	case "ones":
		for i := range out {
			out[i] = true
		}
	case "alt":
		for i := range out {
			out[i] = i%2 == 0
		}
	case "random":
		x := uint64(0x9E3779B97F4A7C15)
		for i := range out {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			out[i] = x&1 == 1
		}
	default:
		return nil, fmt.Errorf("netlists: unknown data pattern %q", pattern)
	}
	return out, nil
}

// PreSenseMeasurement is the Table 1 measurement on a charge-sharing run.
type PreSenseMeasurement struct {
	Geom      device.BankGeometry
	T95       float64       // time for the slowest bitline to develop 95% of its final signal (s)
	Cycles    int           // T95 quantized to DRAM cycles
	WallClock time.Duration // simulation wall time
}

// MeasurePreSense simulates the charge-sharing array and measures the time
// for the slowest bitline's developed signal to reach target (e.g. 0.95) of
// its final value - the Table 1 "pre-sensing time" under transient
// simulation. It is a one-shot wrapper over PreSenseMeter; repeated
// measurements of the same configuration should hold a meter, which reuses
// the netlist and all transient-solver state.
func MeasurePreSense(p device.Params, geom device.BankGeometry, pattern string, target float64) (PreSenseMeasurement, error) {
	start := time.Now()
	m, err := NewPreSenseMeter(p, geom, pattern, target)
	if err != nil {
		return PreSenseMeasurement{}, err
	}
	meas, err := m.Measure()
	if err != nil {
		return PreSenseMeasurement{}, err
	}
	meas.WallClock = time.Since(start) // include netlist construction, as before
	return meas, nil
}

// PreSenseMeter is the steady-state form of MeasurePreSense: it builds the
// charge-sharing netlist and its persistent transient solver once, and each
// Measure call reruns the analysis on the reused solver state, so repeated
// measurements allocate (almost) nothing.
type PreSenseMeter struct {
	p      device.Params
	geom   device.BankGeometry
	target float64
	solver *spice.Solver
	opts   spice.TransientOpts
}

// The meter's time grid: steps of tstop/preSenseSteps up to the fine
// region's end, then steps of preSenseTailMult times that to tstop. Table 1's
// slowest bitlines cross 95 % at 16.5-19.4 % of tstop, inside the fine
// quarter; the tail exists only to settle the final value that sets the
// crossing level, and coarse steps settle it to within tens of picovolts.
const (
	preSenseSteps     = 4000
	preSenseFineSteps = preSenseSteps / 4
	preSenseTailMult  = 64
)

// NewPreSenseMeter prepares a reusable pre-sensing measurement for one
// (parameter set, geometry, pattern, target) configuration. The target is
// the fraction of the final signal to reach, in (0, 1).
func NewPreSenseMeter(p device.Params, geom device.BankGeometry, pattern string, target float64) (*PreSenseMeter, error) {
	if !(target > 0 && target < 1) {
		return nil, fmt.Errorf("netlists: pre-sensing target %g outside (0, 1)", target)
	}
	ckt, err := ChargeSharing(p, ChargeSharingOpts{Geom: geom, Pattern: pattern})
	if err != nil {
		return nil, err
	}
	probes := make([]string, geom.Cols)
	for i := range probes {
		probes[i] = SenseNodeName(i)
	}
	// Simulation horizon: several slow time constants beyond the analytic
	// expectation; generous so the asymptote estimate is clean.
	tstop := 12 * (p.Rpre(geom.Rows)*p.CblSeg() + p.WordlineDelay(geom.Cols))
	if tstop < 10e-9 {
		tstop = 10e-9
	}
	h := tstop / preSenseSteps
	return &PreSenseMeter{
		p:      p,
		geom:   geom,
		target: target,
		solver: spice.NewSolver(ckt),
		opts: spice.TransientOpts{
			TStop:    tstop,
			H:        h,
			Probes:   probes,
			FineStop: preSenseFineSteps * h,
			TailMult: preSenseTailMult,
		},
	}, nil
}

// Measure runs the transient analysis and extracts the pre-sensing time.
//
// The crossing is read off a sample, so a crossing on the fine grid is a
// sample time of the uniform grid too, and the fine prefix of the waveform
// is bit-identical to a uniform run's; only the final value, and with it the
// crossing level, carries the coarse tail's integration error. A crossing
// past the fine region would land on a coarse sample, so Measure then reruns
// the analysis once on the uniform grid.
func (m *PreSenseMeter) Measure() (PreSenseMeasurement, error) {
	start := time.Now()
	worst, err := m.slowestCrossing(m.opts)
	if err == nil && worst > m.opts.FineStop {
		uniform := m.opts
		uniform.FineStop, uniform.TailMult = 0, 0
		worst, err = m.slowestCrossing(uniform)
	}
	if err != nil {
		return PreSenseMeasurement{}, err
	}
	return PreSenseMeasurement{
		Geom:      m.geom,
		T95:       worst,
		Cycles:    m.p.Cycles(worst),
		WallClock: time.Since(start),
	}, nil
}

// slowestCrossing runs one transient analysis on the given grid and returns
// the latest time at which a bitline's sense point reaches the target
// fraction of its final signal.
func (m *PreSenseMeter) slowestCrossing(opts spice.TransientOpts) (float64, error) {
	res, err := m.solver.Transient(opts)
	if err != nil {
		return 0, err
	}
	veq := m.p.Veq()
	worst := 0.0
	for _, probe := range opts.Probes {
		final, err := res.Final(probe)
		if err != nil {
			return 0, err
		}
		swing := final - veq
		if swing == 0 {
			continue
		}
		level := veq + m.target*swing
		t, err := res.FirstCrossing(probe, level, swing > 0)
		if err != nil {
			return 0, err
		}
		if t > worst {
			worst = t
		}
	}
	return worst, nil
}

// SenseAmp builds the Fig. 2d latch-based sense amplifier: cross-coupled
// inverters (M9/M11 and M10/M12) with a tail enable device (M13), the
// bitline pair as the output nodes "ox"/"oy" precharged to Veq +/- dv/2, and
// a DRAM cell hanging off "ox" through its access resistance so the restore
// trajectory (paper Eq. 12, Figure 1a) can be observed on probe "cell".
func SenseAmp(p device.Params, dv float64, cellV float64) *spice.Circuit {
	ckt := spice.New()
	veq := p.Veq()

	ckt.V("vdd", spice.DC(p.Vdd))
	ckt.SetIC("vdd", p.Vdd)

	nmos := spice.MOSParams{Type: spice.NMOS, Beta: p.BetaN, Vt: p.Vtn, Lambda: mosLambda}
	pmos := spice.MOSParams{Type: spice.PMOS, Beta: p.BetaP, Vt: p.Vtp, Lambda: mosLambda}

	// Output/bitline nodes with the developed differential.
	ckt.C("ox", "0", p.CblSeg())
	ckt.C("oy", "0", p.CblSeg())
	ckt.SetIC("ox", veq+dv/2)
	ckt.SetIC("oy", veq-dv/2)

	// Cross-coupled pair.
	ckt.MOS("ox", "oy", "tail", nmos) // M9
	ckt.MOS("oy", "ox", "tail", nmos) // M10
	ckt.MOS("ox", "oy", "vdd", pmos)  // M11
	ckt.MOS("oy", "ox", "vdd", pmos)  // M12

	// Tail enable: SA_EN ramps at t=0.
	saEn := spice.Ramp(0, p.Vdd, 0, 20e-12)
	ckt.MOSDriven("tail", "0", spice.MOSParams{Type: spice.NMOS, Beta: 4 * p.BetaN, Vt: p.Vtn, Lambda: mosLambda}, saEn)
	ckt.SetIC("tail", 0)

	// The refreshed cell restores through its access path off the high side.
	ckt.C("cell", "0", p.Cs)
	ckt.SetIC("cell", cellV)
	ckt.R("cell", "ox", p.RonRestore)

	return ckt
}
