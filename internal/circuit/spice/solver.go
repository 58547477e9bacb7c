package spice

import (
	"errors"
	"fmt"
	"math"

	"vrldram/internal/linalg"
)

// Backend selects the linear-solver storage used by transient analysis.
type Backend int

// Supported backends.
const (
	// BackendAuto picks BackendBanded when the netlist is pivot-free and
	// narrow-banded, BackendDense otherwise.
	BackendAuto Backend = iota
	// BackendDense solves through dense LU with partial pivoting: the
	// checked reference path, valid for every netlist.
	BackendDense
	// BackendBanded solves through no-pivot banded LU in O(nodes *
	// bandwidth^2) per factorization. Safe only for netlists whose stamps
	// keep the matrix strongly diagonal (no node-gated MOSFETs).
	BackendBanded
)

// bandedMinNodes is the node count below which the banded path cannot beat
// dense on constant factors and BackendAuto stays dense.
const bandedMinNodes = 16

// Solver runs transient analyses of one circuit while persisting every piece
// of solver state between timesteps and between runs: the conductance
// pattern is stamped once per (step size, method) configuration, only values
// that can change are refreshed per timestep or per Newton iteration, and
// all matrix/RHS/iterate/result buffers are reused. The circuit must not be
// modified (no devices or nodes added) after the Solver is created.
//
// The stamp schedule that makes this work splits device contributions by
// lifetime:
//
//   - constant stamps (resistor, capacitor, driven-capacitor, and source
//     conductances) go into a base matrix rebuilt only when the timestep or
//     integration method changes;
//   - per-step stamps (source and capacitor-history currents) touch only
//     the right-hand side and are refreshed once per timestep;
//   - per-iteration stamps (MOSFET and saturating-switch linearizations) are
//     refreshed on a scratch copy each Newton iteration.
//
// For a linear netlist the factorization itself is reused across every
// timestep, so a step costs one back-substitution.
type Solver struct {
	ckt    *Circuit
	n      int
	band   int
	hasMOS bool

	constDevs []constStamper
	stepDevs  []stepStamper
	iterDevs  []iterStamper

	backend Backend // resolved BackendDense or BackendBanded for buffers

	dBase, dWork *linalg.Dense
	dlu          linalg.LU
	bBase, bWork *linalg.Banded
	blu          linalg.BandedLU
	bsym         *linalg.BandedSymbolic // per-netlist sparsity analysis, built lazily

	rhsStep, rhsWork []float64
	x, xPrev, xNew   []float64
	xOld, xOld2      []float64 // converged solutions two and three steps back, for the predictor
	capI             []float64
	ax               []float64 // residual-check scratch

	baseH      float64
	baseMethod Method
	baseValid  bool
	baseScale  float64 // max |entry| of the base matrix, for singularity eps
	facFresh   bool    // current factorization is of the untouched base matrix

	ctx       stampCtx
	probeIdx  []int
	probeBufs [][]float64 // per-probe sample buffers, map-published at the end
	res       Result
}

// NewSolver prepares a persistent transient solver for the circuit,
// classifying each device's stamps by lifetime and computing the matrix
// bandwidth the netlist's node numbering yields.
func NewSolver(ckt *Circuit) *Solver {
	s := &Solver{ckt: ckt, n: ckt.NumNodes(), backend: BackendAuto}
	for _, d := range ckt.devices {
		if cs, ok := d.(constStamper); ok {
			s.constDevs = append(s.constDevs, cs)
		}
		if ss, ok := d.(stepStamper); ok {
			s.stepDevs = append(s.stepDevs, ss)
		}
		if is, ok := d.(iterStamper); ok {
			s.iterDevs = append(s.iterDevs, is)
		}
		if _, ok := d.(*mosfet); ok {
			s.hasMOS = true
		}
		ns := d.nodes()
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				if ns[i] >= 0 && ns[j] >= 0 {
					if w := absInt(ns[i] - ns[j]); w > s.band {
						s.band = w
					}
				}
			}
		}
	}
	return s
}

// autoBackend applies the selection rule: banded wants a pivot-free netlist
// (MOSFET stamps are asymmetric and need partial pivoting), enough nodes to
// amortize its constant factors, and a band that actually is narrow.
func (s *Solver) autoBackend() Backend {
	if !s.hasMOS && s.n >= bandedMinNodes && 2*s.band+1 <= s.n/2 {
		return BackendBanded
	}
	return BackendDense
}

// ensureBuffers sizes (or re-targets, when the backend changed) every
// persistent buffer. It allocates only on first use per backend.
func (s *Solver) ensureBuffers(b Backend) {
	n := s.n
	if len(s.x) != n {
		s.x = make([]float64, n)
		s.xPrev = make([]float64, n)
		s.xOld = make([]float64, n)
		s.xOld2 = make([]float64, n)
		s.xNew = make([]float64, n)
		s.rhsStep = make([]float64, n)
		s.rhsWork = make([]float64, n)
		s.ax = make([]float64, n)
	}
	if len(s.capI) != len(s.ckt.caps) {
		s.capI = make([]float64, len(s.ckt.caps))
	}
	switch b {
	case BackendDense:
		if s.dBase == nil || s.dBase.N != n {
			s.dBase = linalg.NewDense(n)
			s.dWork = linalg.NewDense(n)
		}
	case BackendBanded:
		if s.bBase == nil || s.bBase.N != n || s.bBase.K != s.band {
			s.bBase = linalg.NewBanded(n, s.band)
			s.bWork = linalg.NewBanded(n, s.band)
		}
	}
	if b != s.backend {
		s.baseValid = false
		s.facFresh = false
		s.backend = b
	}
}

// rebuildBase restamps the configuration-constant part of the system:
// Gmin on every diagonal plus every constant device conductance for the
// given (step, method) pair.
func (s *Solver) rebuildBase(h float64, method Method) {
	var m matrix
	if s.backend == BackendBanded {
		s.bBase.Zero()
		m = s.bBase
	} else {
		s.dBase.Zero()
		m = s.dBase
	}
	for i := 0; i < s.n; i++ {
		m.AddAt(i, i, Gmin)
	}
	c := &s.ctx
	c.m = m
	c.rhs = nil // constant stamps must not touch the RHS
	c.h = h
	c.method = method
	for _, d := range s.constDevs {
		d.stampConst(c)
	}
	// Cache the base magnitude for singularity thresholds: per-iteration
	// stamps perturb it by at most device conductances, so the scan need not
	// repeat inside the Newton loop.
	var data []float64
	if s.backend == BackendBanded {
		data = s.bBase.Data
	} else {
		data = s.dBase.Data
	}
	s.baseScale = 0
	for _, v := range data {
		if a := math.Abs(v); a > s.baseScale {
			s.baseScale = a
		}
	}
	s.baseH, s.baseMethod = h, method
	s.baseValid = true
	s.facFresh = false
}

// symbolic returns the netlist's symbolic banded factorization, analyzing the
// stamp pattern on first use. The pattern is the superset of positions any
// device can stamp — every node pair of every device, plus the Gmin diagonal —
// so it stays valid for all timesteps and Newton iterations of this circuit.
func (s *Solver) symbolic() (*linalg.BandedSymbolic, error) {
	if s.bsym != nil {
		return s.bsym, nil
	}
	var pairs [][2]int
	for _, d := range s.ckt.devices {
		ns := d.nodes()
		for i := 0; i < len(ns); i++ {
			for j := i; j < len(ns); j++ {
				if ns[i] >= 0 && ns[j] >= 0 {
					pairs = append(pairs, [2]int{ns[i], ns[j]})
				}
			}
		}
	}
	sym, err := linalg.NewBandedSymbolic(s.n, s.band, pairs)
	if err != nil {
		return nil, err
	}
	s.bsym = sym
	return sym, nil
}

func (s *Solver) refactor(dm *linalg.Dense, bm *linalg.Banded) error {
	if s.backend == BackendBanded {
		return s.blu.Refactor(bm)
	}
	return s.dlu.Refactor(dm)
}

// refactorScratch factors a matrix whose contents are rebuilt before the next
// factorization anyway (the per-iteration scratch copy), letting
// the banded path skip the defensive copy and magnitude scan. keep forces the
// copying path so the matrix survives for a later residual check.
func (s *Solver) refactorScratch(dm *linalg.Dense, bm *linalg.Banded, keep bool) error {
	if s.backend == BackendBanded && !keep {
		return s.blu.RefactorInPlace(bm, s.baseScale)
	}
	return s.refactor(dm, bm)
}

func (s *Solver) solveInto(dst, rhs []float64) error {
	if s.backend == BackendBanded {
		return s.blu.SolveInto(dst, rhs)
	}
	return s.dlu.SolveInto(dst, rhs)
}

// checkResidual verifies ||A*x - b||inf against a scale-relative tolerance,
// where A is the (unfactored) matrix that was handed to the last refactor.
func (s *Solver) checkResidual(dm *linalg.Dense, bm *linalg.Banded, x, b []float64) error {
	var err error
	if s.backend == BackendBanded {
		err = bm.MulVecInto(s.ax, x)
	} else {
		err = dm.MulVecInto(s.ax, x)
	}
	if err != nil {
		return err
	}
	var scale float64
	for _, v := range b {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	tol := 1e-8 * (1 + scale)
	for i := range s.ax {
		if r := math.Abs(s.ax[i] - b[i]); r > tol {
			return fmt.Errorf("spice: linear-solve residual %.3g at node %d exceeds %.3g", r, i, tol)
		}
	}
	return nil
}

// record appends the current iterate's probe samples to the per-probe
// buffers; Transient publishes them into the result map once at the end,
// keeping map lookups off the per-step path.
func (s *Solver) record(t float64) {
	s.res.Times = append(s.res.Times, t)
	for k, idx := range s.probeIdx {
		s.probeBufs[k] = append(s.probeBufs[k], s.x[idx])
	}
}

// Transient runs backward-Euler (or trapezoidal, per SetMethod) transient
// analysis from the configured initial conditions ("UIC" mode: no DC
// operating-point solve; the DRAM netlists always specify consistent initial
// states). The returned Result reuses the Solver's buffers and is valid only
// until the next Transient call on the same Solver; callers that need the
// waveforms beyond that must copy them.
func (s *Solver) Transient(opts TransientOpts) (*Result, error) {
	fine, tail, hTail, err := opts.grid()
	if err != nil {
		return nil, err
	}
	if opts.MaxIter == 0 {
		opts.MaxIter = 60
	}
	if opts.AbsTol == 0 {
		opts.AbsTol = 1e-6
	}
	n := s.n
	if n == 0 {
		return nil, errors.New("spice: circuit has no nodes")
	}
	backend := opts.Backend
	if backend == BackendAuto {
		backend = s.autoBackend()
	}
	s.ensureBuffers(backend)
	var sym *linalg.BandedSymbolic
	if backend == BackendBanded && len(s.iterDevs) > 0 && !opts.CheckResidual {
		var err error
		if sym, err = s.symbolic(); err != nil {
			return nil, err
		}
	}

	if cap(s.probeIdx) < len(opts.Probes) {
		s.probeIdx = make([]int, 0, len(opts.Probes))
	}
	s.probeIdx = s.probeIdx[:0]
	for _, p := range opts.Probes {
		idx, ok := s.ckt.names[p]
		if !ok {
			return nil, fmt.Errorf("spice: probe %q names an unknown node", p)
		}
		s.probeIdx = append(s.probeIdx, idx)
	}
	s.res.Times = s.res.Times[:0]
	if s.res.Probes == nil {
		s.res.Probes = make(map[string][]float64, len(opts.Probes))
	}
	for k := range s.res.Probes {
		keep := false
		for _, p := range opts.Probes {
			if p == k {
				keep = true
				break
			}
		}
		if !keep {
			delete(s.res.Probes, k)
		}
	}
	s.probeBufs = s.probeBufs[:0]
	for _, p := range opts.Probes {
		s.probeBufs = append(s.probeBufs, s.res.Probes[p][:0])
	}

	for i := range s.x {
		s.x[i] = 0
	}
	for node, v := range s.ckt.ic {
		s.x[node] = v
	}
	copy(s.xPrev, s.x)
	copy(s.xOld, s.x)
	copy(s.xOld2, s.x)
	for i := range s.capI {
		s.capI[i] = 0
	}
	s.baseValid = false
	s.facFresh = false
	s.record(0)

	steps := fine + tail
	tFine := float64(fine) * opts.H
	tPrev := 0.0
	for st := 1; st <= steps; st++ {
		// Fine steps sit at st*H; tail steps at fixed multiples of hTail past
		// the last fine sample. Stamp with the nominal step size: t-tPrev
		// jitters in the last ULP (t is a product, not an accumulation), and
		// letting that jitter into h would force a base rebuild - and drop
		// any cached factorization - on every step. Only the final step,
		// which TStop may clamp short, stamps with its true width.
		t, h := float64(st)*opts.H, opts.H
		if st > fine {
			t, h = tFine+float64(st-fine)*hTail, hTail
		}
		if t > opts.TStop {
			t = opts.TStop
		}
		if st == steps {
			h = t - tPrev
		}
		if h <= 0 {
			break
		}
		// The trapezoidal rule needs a current history; the first step runs
		// backward Euler and seeds it.
		method := s.ckt.method
		if st == 1 {
			method = BackwardEuler
		}
		if !s.baseValid || h != s.baseH || method != s.baseMethod {
			s.rebuildBase(h, method)
		}
		// Predictor: start Newton from the quadratic extrapolation of the
		// last three converged solutions instead of holding the previous
		// value. In smooth regions the extrapolated iterate is already within
		// AbsTol, so the step converges in one linearization instead of two.
		// Linear circuits take the solve verbatim (no iteration to shorten)
		// and skip it so their single clamped update keeps the previous-value
		// start.
		if s.ckt.hasNL && st > 1 {
			for i := range s.x {
				s.x[i] = 3*(s.xPrev[i]-s.xOld[i]) + s.xOld2[i]
			}
		}

		c := &s.ctx
		c.x, c.xPrev = s.x, s.xPrev
		c.t, c.h, c.method = t, h, method
		c.capI = s.capI
		for i := range s.rhsStep {
			s.rhsStep[i] = 0
		}
		c.rhs = s.rhsStep
		// Per-step stamps touch only the RHS, so the step's system matrix
		// is the base itself.
		if s.backend == BackendBanded {
			c.m = s.bBase
		} else {
			c.m = s.dBase
		}
		for _, d := range s.stepDevs {
			d.stampStep(c)
		}

		converged := false
		for it := 0; it < opts.MaxIter; it++ {
			facDM, facBM := s.dBase, s.bBase
			rhs := s.rhsStep
			solved := false
			if len(s.iterDevs) > 0 {
				// Nonlinear devices relinearize around the iterate on a
				// scratch copy of the per-step system.
				if s.backend == BackendBanded {
					s.bWork.CopyFrom(s.bBase)
					c.m = s.bWork
				} else {
					s.dWork.CopyFrom(s.dBase)
					c.m = s.dWork
				}
				copy(s.rhsWork, s.rhsStep)
				c.rhs = s.rhsWork
				for _, d := range s.iterDevs {
					d.stampIter(c)
				}
				facDM, facBM = s.dWork, s.bWork
				rhs = s.rhsWork
				if sym != nil {
					// The scratch system is factored once and solved once, so
					// fuse the two over the netlist's symbolic sparsity: the
					// forward substitution rides the elimination's multipliers
					// and only true structural nonzeros are visited.
					if err := sym.FactorSolve(facBM, s.baseScale, s.xNew, rhs); err != nil {
						return nil, fmt.Errorf("spice: t=%.4g s: %w", t, err)
					}
					solved = true
				} else if err := s.refactorScratch(facDM, facBM, opts.CheckResidual); err != nil {
					return nil, fmt.Errorf("spice: t=%.4g s: %w", t, err)
				}
			} else if !s.facFresh {
				// Pure-linear fast path: the factorization of the base stays
				// valid until the base is rebuilt, so a timestep costs one
				// back-substitution.
				if err := s.refactor(facDM, facBM); err != nil {
					return nil, fmt.Errorf("spice: t=%.4g s: %w", t, err)
				}
				s.facFresh = true
			}
			if !solved {
				if err := s.solveInto(s.xNew, rhs); err != nil {
					return nil, fmt.Errorf("spice: t=%.4g s: %w", t, err)
				}
			}
			if opts.CheckResidual {
				if err := s.checkResidual(facDM, facBM, s.xNew, rhs); err != nil {
					return nil, fmt.Errorf("spice: t=%.4g s: %w", t, err)
				}
			}
			// Damp large Newton steps for the nonlinear devices.
			var delta float64
			for i := range s.xNew {
				d := s.xNew[i] - s.x[i]
				if d > 0.5 {
					d = 0.5
				} else if d < -0.5 {
					d = -0.5
				}
				s.x[i] += d
				if a := math.Abs(d); a > delta {
					delta = a
				}
			}
			if !s.ckt.hasNL || delta < opts.AbsTol {
				converged = true
				break
			}
		}
		if !converged {
			return nil, fmt.Errorf("spice: Newton failed to converge at t=%.4g s", t)
		}
		if s.ckt.method == Trapezoidal {
			for _, cp := range s.ckt.caps {
				vd := voltOf(s.x, cp.a) - voltOf(s.x, cp.b)
				vdPrev := voltOf(s.xPrev, cp.a) - voltOf(s.xPrev, cp.b)
				if st == 1 {
					// Seed the current memory from the backward-Euler step:
					// i_1 = C (vd_1 - vd_0) / h.
					s.capI[cp.idx] = cp.cap / h * (vd - vdPrev)
				} else {
					// i_n = (2C/h)(vd_n - vd_(n-1)) - i_(n-1).
					s.capI[cp.idx] = 2*cp.cap/h*(vd-vdPrev) - s.capI[cp.idx]
				}
			}
		}
		copy(s.xOld2, s.xOld)
		copy(s.xOld, s.xPrev)
		copy(s.xPrev, s.x)
		tPrev = t
		s.record(t)
	}
	for k, p := range opts.Probes {
		s.res.Probes[p] = s.probeBufs[k]
	}
	return &s.res, nil
}
