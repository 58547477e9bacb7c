// Package spice is a compact transient circuit simulator: the stand-in for
// the HSPICE runs the paper uses to validate its analytical model (Figures
// 1a and 5, Table 1).
//
// It implements nodal analysis with backward-Euler integration and
// Newton-Raphson iteration for the nonlinear devices. Supported elements:
//
//   - resistors,
//   - capacitors (node-to-node and node-to-driven-waveform),
//   - voltage sources (Norton form with a small series resistance, which
//     keeps the conductance matrix free of zero diagonals),
//   - time-controlled switches,
//   - level-1 (Shichman-Hodges) MOSFETs, N and P, whose gate is either a
//     circuit node or a driven waveform (the latter models a wordline driver
//     without creating a dense matrix row across every bitline).
//
// Circuits containing MOSFETs (whose stamps are asymmetric and need partial
// pivoting) solve through dense LU; large pivot-free cell-array netlists
// solve through a no-pivot banded factorization, so transient cost is
// O(nodes * bandwidth^2) per step. This is what makes the engine usable for
// Table 1's bank-size sweep while still being orders of magnitude slower
// than the analytical model - the trade-off Table 1 exists to demonstrate.
//
// The transient engine lives in Solver (see solver.go), which persists the
// stamped system and all working buffers across timesteps and runs;
// Circuit.Transient is a one-shot convenience wrapper around it.
package spice

import (
	"errors"
	"fmt"
	"math"
)

// Gmin is the minimum conductance tied from every node to ground for
// numerical robustness, as in production SPICE implementations.
const Gmin = 1e-12

// Waveform is a time-dependent source value in volts.
type Waveform func(t float64) float64

// DC returns a constant waveform.
func DC(v float64) Waveform { return func(float64) float64 { return v } }

// Ramp returns a v0->v1 ramp starting at t0 lasting rise seconds.
func Ramp(v0, v1, t0, rise float64) Waveform {
	return func(t float64) float64 {
		switch {
		case t <= t0:
			return v0
		case t >= t0+rise:
			return v1
		default:
			return v0 + (v1-v0)*(t-t0)/rise
		}
	}
}

// matrix abstracts the two storage/solver backends.
type matrix interface {
	AddAt(i, j int, v float64)
	Zero()
}

// stampCtx carries the assembly state handed to devices. Depending on the
// stamp class being assembled (see the device interface below), only a
// subset of the fields is meaningful: constant stamps may read only h and
// method (rhs is nil there, so touching it faults fast), per-step stamps
// additionally t and xPrev, per-iteration stamps everything.
type stampCtx struct {
	m      matrix
	rhs    []float64
	x      []float64 // current Newton iterate (node voltages)
	xPrev  []float64 // node voltages at the previous accepted timestep
	t      float64   // time at the end of the current step
	h      float64   // step size
	method Method
	capI   []float64 // trapezoidal current memory, indexed by capacitor.idx
}

// volt returns the iterate voltage of a node index (ground = -1 reads 0).
func (c *stampCtx) volt(n int) float64 {
	if n < 0 {
		return 0
	}
	return c.x[n]
}

func (c *stampCtx) voltPrev(n int) float64 {
	if n < 0 {
		return 0
	}
	return c.xPrev[n]
}

// addM stamps into the matrix, dropping ground rows/columns.
func (c *stampCtx) addM(i, j int, v float64) {
	if i >= 0 && j >= 0 {
		c.m.AddAt(i, j, v)
	}
}

// addG stamps a conductance g between nodes a and b (ground = -1).
func (c *stampCtx) addG(a, b int, g float64) {
	c.addM(a, a, g)
	c.addM(b, b, g)
	c.addM(a, b, -g)
	c.addM(b, a, -g)
}

// addI stamps a current source of i amps flowing from node a into node b.
func (c *stampCtx) addI(a, b int, i float64) {
	if a >= 0 {
		c.rhs[a] -= i
	}
	if b >= 0 {
		c.rhs[b] += i
	}
}

// device is the common element interface. Stamping is not part of it:
// each device implements one or more of the lifetime-classified stamp
// interfaces below, and the Solver schedules them accordingly.
type device interface {
	nodes() []int // for bandwidth computation
	linear() bool
}

// constStamper contributes matrix stamps that are constant for a given
// (step size, integration method) pair: conductances of resistors,
// capacitor companions, and sources. Stamped once into the base matrix.
type constStamper interface {
	stampConst(c *stampCtx)
}

// stepStamper contributes stamps that change between timesteps but are
// fixed within one: history and source currents. They touch only the
// right-hand side, so the matrix is refactored only when it changes.
type stepStamper interface {
	stampStep(c *stampCtx)
}

// iterStamper contributes stamps that depend on the Newton iterate: the
// relinearized companion models of the nonlinear devices.
type iterStamper interface {
	stampIter(c *stampCtx)
}

// Circuit is a netlist under construction and the engine that simulates it.
type Circuit struct {
	names   map[string]int
	nodeOf  []string
	devices []device
	caps    []*capacitor
	ic      map[int]float64
	hasNL   bool
	method  Method

	// The devices by stamping role, in insertion order (see add).
	constDevs []constStamper
	stepDevs  []stepStamper
	iterDevs  []iterStamper
}

// New returns an empty circuit. The node name "0" (and "gnd") is ground.
func New() *Circuit {
	return &Circuit{names: map[string]int{}, ic: map[int]float64{}}
}

// Node interns a node name and returns its index; "0" and "gnd" return -1
// (ground).
func (ckt *Circuit) Node(name string) int {
	if name == "0" || name == "gnd" {
		return -1
	}
	if n, ok := ckt.names[name]; ok {
		return n
	}
	n := len(ckt.nodeOf)
	ckt.names[name] = n
	ckt.nodeOf = append(ckt.nodeOf, name)
	return n
}

// NumNodes returns the number of non-ground nodes.
func (ckt *Circuit) NumNodes() int { return len(ckt.nodeOf) }

// SetIC sets the initial (t=0) voltage of a node; unset nodes start at 0 V.
func (ckt *Circuit) SetIC(name string, v float64) {
	n := ckt.Node(name)
	if n >= 0 {
		ckt.ic[n] = v
	}
}

// add appends a device with the stamping roles it plays, nil for a role
// it does not. The constructors pass each role as a conversion of the
// device's static type, so no interface assertion runs when a solver is
// built: the runtime grows an assertion site's type cache at random calls,
// and the allocation count of building a solver would vary from run to run.
func (ckt *Circuit) add(d device, cs constStamper, ss stepStamper, is iterStamper) {
	ckt.devices = append(ckt.devices, d)
	if cs != nil {
		ckt.constDevs = append(ckt.constDevs, cs)
	}
	if ss != nil {
		ckt.stepDevs = append(ckt.stepDevs, ss)
	}
	if is != nil {
		ckt.iterDevs = append(ckt.iterDevs, is)
	}
	if c, ok := d.(*capacitor); ok {
		c.idx = len(ckt.caps)
		ckt.caps = append(ckt.caps, c)
	}
	if !d.linear() {
		ckt.hasNL = true
	}
}

// Result holds a transient waveform set.
type Result struct {
	Times  []float64
	Probes map[string][]float64
}

// At returns the probed voltage of a node at the sample nearest to time t.
func (r *Result) At(probe string, t float64) (float64, error) {
	vs, ok := r.Probes[probe]
	if !ok {
		return 0, fmt.Errorf("spice: no probe %q", probe)
	}
	if len(r.Times) == 0 {
		return 0, errors.New("spice: empty result")
	}
	best, bd := 0, math.Inf(1)
	for i, tt := range r.Times {
		if d := math.Abs(tt - t); d < bd {
			best, bd = i, d
		}
	}
	return vs[best], nil
}

// FirstCrossing returns the earliest time the probed voltage satisfies
// rising ? v >= level : v <= level, or an error if it never does.
func (r *Result) FirstCrossing(probe string, level float64, rising bool) (float64, error) {
	vs, ok := r.Probes[probe]
	if !ok {
		return 0, fmt.Errorf("spice: no probe %q", probe)
	}
	for i, v := range vs {
		if (rising && v >= level) || (!rising && v <= level) {
			return r.Times[i], nil
		}
	}
	return 0, fmt.Errorf("spice: probe %q never crosses %.4g", probe, level)
}

// Final returns the last sample of a probe.
func (r *Result) Final(probe string) (float64, error) {
	vs, ok := r.Probes[probe]
	if !ok || len(vs) == 0 {
		return 0, fmt.Errorf("spice: no probe %q", probe)
	}
	return vs[len(vs)-1], nil
}

// maxSteps caps the timesteps of one transient analysis. Every step records
// one sample per probe plus its time, so the cap bounds a run's result
// buffers at 32 MiB per waveform; a step far below the end time's scale is
// refused rather than allowed to allocate without bound.
const maxSteps = 1 << 22

// TransientOpts tunes the simulation loop.
type TransientOpts struct {
	TStop  float64 // end time (s)
	H      float64 // step (s)
	Probes []string
	// FineStop and TailMult make the time grid two-rate: steps of H up to
	// the first multiple of H at or past FineStop, then steps of TailMult*H
	// ending exactly on TStop. The fine prefix is computed exactly as on the
	// uniform grid, so its samples are bit-identical to a uniform run's.
	// Both zero (the default) is the uniform grid of H; FineStop at or past
	// TStop is too.
	FineStop float64
	TailMult int
	MaxIter  int     // Newton iterations per step (default 60)
	AbsTol   float64 // Newton voltage convergence (default 1 uV)
	Backend  Backend // linear-solver backend (default BackendAuto)
	// CheckResidual re-verifies every linear solve against the assembled
	// system through an infinity-norm residual check. Diagnostic/test use.
	CheckResidual bool
}

// grid validates the time grid and returns its fine step count, its tail
// step count and the tail step width.
func (o TransientOpts) grid() (fine, tail int, hTail float64, err error) {
	if !finitePositive(o.TStop) || !finitePositive(o.H) {
		return 0, 0, 0, fmt.Errorf("spice: TStop and H must be finite and positive (got %g, %g)", o.TStop, o.H)
	}
	n := math.Ceil(o.TStop/o.H - 1e-9)
	if n > maxSteps {
		return 0, 0, 0, fmt.Errorf("spice: TStop %g at step %g takes %.3g steps, above the cap of %d", o.TStop, o.H, n, maxSteps)
	}
	if n < 1 {
		return 0, 0, 0, fmt.Errorf("spice: step %g exceeds TStop %g a billionfold", o.H, o.TStop)
	}
	if o.FineStop == 0 && o.TailMult == 0 {
		return int(n), 0, 0, nil
	}
	if !finitePositive(o.FineStop) || o.TailMult < 1 {
		return 0, 0, 0, fmt.Errorf("spice: a two-rate grid needs a finite positive FineStop and TailMult >= 1 (got %g, %d)", o.FineStop, o.TailMult)
	}
	f := math.Ceil(o.FineStop/o.H - 1e-9)
	if f >= n {
		return int(n), 0, 0, nil
	}
	fine = int(f)
	hTail = float64(o.TailMult) * o.H
	tail = int(math.Ceil((o.TStop-float64(fine)*o.H)/hTail - 1e-9))
	// A fine region ending a hair short of TStop still needs one step to
	// land on it.
	return fine, max(tail, 1), hTail, nil
}

func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// Transient runs backward-Euler transient analysis from the configured
// initial conditions ("UIC" mode: no DC operating-point solve; the DRAM
// netlists always specify consistent initial states). It is a one-shot
// convenience wrapper over NewSolver(ckt).Transient; repeated analyses of
// the same circuit should hold a Solver, which reuses all solver state.
func (ckt *Circuit) Transient(opts TransientOpts) (*Result, error) {
	return NewSolver(ckt).Transient(opts)
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// voltOf reads a node voltage from a solution vector (ground = -1 reads 0).
func voltOf(x []float64, n int) float64 {
	if n < 0 {
		return 0
	}
	return x[n]
}
