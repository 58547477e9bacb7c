package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"vrldram/internal/checkpoint"
	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/ecc"
	"vrldram/internal/exp"
	"vrldram/internal/fault"
	"vrldram/internal/fleet"
	"vrldram/internal/guard"
	"vrldram/internal/profcache"
	"vrldram/internal/retention"
	"vrldram/internal/scenario"
	"vrldram/internal/scrub"
	"vrldram/internal/sim"
	"vrldram/internal/tracecache"
)

// workload is one set of inputs the benchmark runs. Every iteration runs in
// a fresh child process, so it pays the cold process-global caches a CLI
// call pays.
type workload struct {
	name string
	why  string
	// iter runs one iteration: set-up, then it.startRun, then the timed
	// phase. It fails on any output check.
	iter func(it *iter) error
	// verify, when set, runs untimed cross-checks in a child of its own.
	verify func(it *iter) error
}

var workloads = []workload{
	{
		name:   "device-quiet",
		why:    "refresh-only paper bank for 384 simulated s: fast-forward does the work and set-up is tiny",
		iter:   deviceIter,
		verify: deviceVerify,
	},
	{
		name:   "fleet-mixed",
		why:    "512 short device runs with scenarios, guard and scrub on two slots: per-device set-up and fleet engine costs",
		iter:   fleetIter,
		verify: fleetVerify,
	},
	{
		name: "report",
		why:  "full report regeneration: circuit models, the experiment worker pool and many short simulation windows",
		iter: reportIter,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// childOut is what one child reports to the parent, as JSON on stdout.
type childOut struct {
	SetupS float64            `json:"setup_s"`
	RunS   float64            `json:"run_s"`
	Digest string             `json:"digest"`
	Counts map[string]float64 `json:"counts"`
	Spans  []Span             `json:"spans,omitempty"`
}

// iter is the state of one child: its inputs, clock, spans and outputs.
type iter struct {
	ctx       context.Context
	seed      int64
	smoke     bool
	setupOnly bool // measure set-up, then stop
	workdir   string
	tr        *tracer

	setup, run int // ids of the phase spans
	runStart   time.Time
	digest     hash.Hash
	out        childOut
}

// errSetupOnly ends a set-up-only child's workload where its timed phase
// would start.
var errSetupOnly = errors.New("set-up only")

// startRun ends set-up and starts the timed phase. In a set-up-only child
// it returns errSetupOnly instead, which the workload passes up.
func (it *iter) startRun() error {
	it.tr.end(it.setup)
	it.out.SetupS = it.tr.now()
	if it.setupOnly {
		return errSetupOnly
	}
	it.run = it.tr.begin("run", -1)
	it.runStart = time.Now()
	return nil
}

// endRun ends the timed phase.
func (it *iter) endRun() {
	it.out.RunS = time.Since(it.runStart).Seconds()
	it.tr.end(it.run)
}

// call runs f inside a span named name under parent.
func call[T any](it *iter, parent int, name string, f func() (T, error)) (T, error) {
	id := it.tr.begin(name, parent)
	v, err := f()
	it.tr.end(id)
	return v, err
}

func (it *iter) count(name string, v float64) { it.out.Counts[name] += v }

// addStats records the simulated counters of one run of dur simulated
// seconds on devices devices.
func (it *iter) addStats(events, busyCycles, violations int64, devices int, dur, tck float64) {
	it.count("sim.events", float64(events))
	it.count("sim.device_s", float64(devices)*dur)
	it.count("sim.violations", float64(violations))
	it.count("sim.busy_s", float64(busyCycles)*tck)
}

func hashStats(h hash.Hash, st sim.Stats) { fmt.Fprintf(h, "%+v\n", st) }

// --- device workloads -----------------------------------------------------------

// deviceRun describes one refresh-only run on the paper bank.
type deviceRun struct {
	duration float64
	backend  sim.Backend
	ckpt     float64 // checkpoint interval in simulated s (0 = none)
}

// runBank builds the paper bank and runs it, recording spans when traced.
// It returns the Stats and a hash over every checkpoint blob written.
func runBank(it *iter, r deviceRun) (sim.Stats, []byte, error) {
	p := device.Default90nm()
	geom := device.PaperBank
	prof, err := call(it, it.setup, "retention.profile", func() (*retention.BankProfile, error) {
		return retention.NewPaperProfile(retention.DefaultCellDistribution(), it.seed)
	})
	if err != nil {
		return sim.Stats{}, nil, err
	}
	rm, err := call(it, it.setup, "core.restore_model", func() (core.RestoreModel, error) {
		return core.PaperRestoreModel(p, geom)
	})
	if err != nil {
		return sim.Stats{}, nil, err
	}
	sched, err := call(it, it.setup, "core.scheduler", func() (core.Scheduler, error) {
		return core.NewVRL(prof, core.Config{Restore: rm})
	})
	if err != nil {
		return sim.Stats{}, nil, err
	}
	bank, err := call(it, it.setup, "dram.bank", func() (*dram.Bank, error) {
		return dram.NewBank(prof, retention.ExpDecay{}, retention.PatternAllZeros)
	})
	if err != nil {
		return sim.Stats{}, nil, err
	}
	opts := sim.Options{Duration: r.duration, TCK: p.TCK, Backend: r.backend}
	if err := it.startRun(); err != nil {
		return sim.Stats{}, nil, err
	}
	simID := it.tr.begin("sim.run", it.run)
	ckh := sha256.New()
	if r.ckpt > 0 {
		var buf bytes.Buffer
		opts.CheckpointEvery = r.ckpt
		opts.CheckpointSink = func(cp *sim.Checkpoint) error {
			buf.Reset()
			err := checkpoint.EncodeSim(&buf, cp)
			ckh.Write(buf.Bytes())
			return err
		}
	}
	st, err := sim.RunContext(it.ctx, bank, sched, nil, opts)
	it.tr.end(simID)
	it.endRun()
	if err != nil {
		return st, nil, err
	}
	it.addStats(st.Refreshes()+st.Accesses, st.BusyCycles, int64(st.Violations), 1, r.duration, p.TCK)
	return st, ckh.Sum(nil), nil
}

func deviceIter(it *iter) error {
	dur := 500 * 0.768
	if it.smoke {
		dur = 0.768
	}
	st, _, err := runBank(it, deviceRun{duration: dur})
	if err != nil {
		return err
	}
	if st.Violations != 0 {
		return fmt.Errorf("refresh-only run has %d violations, want 0", st.Violations)
	}
	hashStats(it.digest, st)
	return nil
}

// deviceVerify checks that the auto backend's Stats and checkpoint bytes
// equal the scalar reference's on a prefix of the workload's window.
func deviceVerify(it *iter) error {
	prefix := 4 * 0.768
	if it.smoke {
		prefix = 0.768
	}
	var digests [2]string
	for i, be := range []sim.Backend{sim.BackendAuto, sim.BackendScalar} {
		st, ck, err := runBank(it, deviceRun{duration: prefix, backend: be, ckpt: prefix / 4})
		if err != nil {
			return fmt.Errorf("%s backend: %w", be, err)
		}
		h := sha256.New()
		hashStats(h, st)
		h.Write(ck)
		digests[i] = hex.EncodeToString(h.Sum(nil))
	}
	if digests[0] != digests[1] {
		return fmt.Errorf("auto backend differs from scalar on the %.3f s prefix", prefix)
	}
	return nil
}

// --- fleet workload ---------------------------------------------------------------

const fleetSlots = 2

func fleetSpec(seed int64, smoke bool) (fleet.Spec, error) {
	mix, err := scenario.ParseMix("diurnal=2,vrt-storm=1,kitchen-sink=1")
	if err != nil {
		return fleet.Spec{}, err
	}
	spec := fleet.Spec{
		Devices: 512, Seed: seed, Scheduler: "vrl", Duration: 0.128,
		Rows: 1024, Cols: 8, ShardSize: 64,
		TempSwingC: 12, WeakFrac: 0.05, Scenarios: mix, Guard: true, Scrub: true,
	}
	if smoke {
		spec.Devices, spec.ShardSize = 32, 8
	}
	return spec.WithDefaults(), spec.Validate()
}

// tracedExecutor is fleet.LocalExecutor with a span around every device
// run and summary fold. verify checks that it produces the same bytes.
type tracedExecutor struct {
	it     *iter
	cache  *profcache.Cache
	parent int

	mu   sync.Mutex
	devS []float64 // host seconds of each device run
}

func (e *tracedExecutor) Name() string { return "bench-traced" }
func (e *tracedExecutor) Slots() int   { return fleetSlots }

func (e *tracedExecutor) RunShard(ctx context.Context, ss fleet.ShardSpec) (fleet.ShardResult, error) {
	if err := ss.Validate(); err != nil {
		return fleet.ShardResult{}, err
	}
	it := e.it
	shard := it.tr.begin("fleet.shard", e.parent)
	defer it.tr.end(shard)
	spec := ss.Spec.WithDefaults()
	sum := fleet.NewSummary()
	for i := ss.Start; i < ss.Start+ss.Count; i++ {
		dev := spec.Device(i)
		t0 := time.Now()
		st, err := call(it, shard, "fleet.device", func() (sim.Stats, error) {
			return fleet.RunDevice(ctx, spec, dev, e.cache)
		})
		if err != nil {
			return fleet.ShardResult{}, fmt.Errorf("shard %d device %d: %w", ss.Index, i, err)
		}
		e.mu.Lock()
		e.devS = append(e.devS, time.Since(t0).Seconds())
		e.mu.Unlock()
		id := it.tr.begin("fleet.summary", shard)
		sum.AddDevice(dev, st, spec.TCK())
		it.tr.end(id)
	}
	return fleet.ShardResult{Shard: ss.Index, Start: ss.Start, Count: ss.Count, Sum: sum}, nil
}

func newTracedExecutor(it *iter, parent int) *tracedExecutor {
	return &tracedExecutor{it: it, cache: &profcache.Cache{}, parent: parent}
}

func fleetIter(it *iter) error {
	spec, err := fleetSpec(it.seed, it.smoke)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(it.workdir, "fleet-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var exec fleet.Executor = fleet.NewLocalExecutor(fleetSlots)
	var traced *tracedExecutor
	if err := it.startRun(); err != nil {
		return err
	}
	runID := it.tr.begin("fleet.run", it.run)
	if it.tr.on {
		traced = newTracedExecutor(it, runID)
		exec = traced
	}
	rep, err := fleet.Run(it.ctx, spec, []fleet.Executor{exec}, fleet.Options{ManifestPath: filepath.Join(dir, "manifest")})
	it.tr.end(runID)
	it.endRun()
	if err != nil {
		return err
	}
	if !rep.Complete() {
		return fmt.Errorf("campaign incomplete: %d of %d shards done", rep.ShardsDone, rep.ShardsTotal)
	}
	s := rep.Sum
	it.addStats(s.FullRefreshes+s.PartialRefreshes, s.BusyCycles, s.Violations, spec.Devices, spec.Duration, spec.TCK())
	it.count("fleet.shards", float64(rep.ShardsTotal))
	it.digest.Write(s.Encode())
	if traced != nil {
		return fleetProbe(it, spec, traced)
	}
	return nil
}

// fleetProbe times the per-device constructors RunDevice calls on a sample
// of the population, after the timed phase, to size the share of a device
// run that a reusable run context could save.
func fleetProbe(it *iter, spec fleet.Spec, e *tracedExecutor) error {
	const sample = 64
	p := device.Default90nm()
	geom := device.BankGeometry{Rows: spec.Rows, Cols: spec.Cols}
	rm, err := core.PaperRestoreModel(p, geom)
	if err != nil {
		return err
	}
	stride := max(spec.Devices/sample, 1)
	var setup []float64
	for i := 0; i < spec.Devices; i += stride {
		dev := spec.Device(i)
		t0 := time.Now()
		prof, err := retention.NewSampledProfile(geom, retention.DefaultCellDistribution(), dev.Seed)
		if err != nil {
			return err
		}
		sched, err := core.NewVRL(prof, core.Config{Restore: rm})
		if err != nil {
			return err
		}
		g, err := guard.New(sched, spec.Rows, guard.Config{Restore: rm})
		if err != nil {
			return err
		}
		bankProf, err := fault.TemperatureExcursion(prof, retention.DefaultTempModel(), dev.TempC)
		if err != nil {
			return err
		}
		bank, err := dram.NewBank(bankProf, retention.ExpDecay{}, retention.PatternAllZeros)
		if err != nil {
			return err
		}
		if dev.Scenario.Name != "" {
			if _, err := scenario.BuildEnv(dev.Scenario, spec.Duration, dev.ScenSeed); err != nil {
				return err
			}
		}
		store, err := scrub.NewBankStore(bank, ecc.DefaultClassifier())
		if err != nil {
			return err
		}
		if _, err := scrub.New(store, scrub.Config{Sched: g}); err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	devP50 := percentile(e.devS, 50)
	tail, _ := tailPercentile(len(e.devS))
	it.count("fleet.setup_share", median(setup)/devP50)
	it.count("fleet.device_tail_ratio", percentile(e.devS, tail)/devP50)
	it.count("fleet.devices_per_s", float64(len(e.devS))/it.out.RunS)
	return nil
}

// fleetVerify checks the engine against the sequential oracle on a small
// copy of the spec, and the traced executor against the local one.
func fleetVerify(it *iter) error {
	spec, err := fleetSpec(it.seed, it.smoke)
	if err != nil {
		return err
	}
	spec.Devices, spec.ShardSize = 64, 16
	if it.smoke {
		spec.Devices, spec.ShardSize = 16, 8
	}
	rep, err := fleet.Run(it.ctx, spec, []fleet.Executor{fleet.NewLocalExecutor(fleetSlots)}, fleet.Options{})
	if err != nil {
		return err
	}
	seq, err := fleet.RunSequential(it.ctx, spec, nil)
	if err != nil {
		return err
	}
	if !bytes.Equal(rep.Sum.Encode(), seq.Encode()) {
		return fmt.Errorf("fleet.Run summary differs from fleet.RunSequential")
	}
	ss := spec.Shards()[0]
	local, err := fleet.NewLocalExecutor(1).RunShard(it.ctx, ss)
	if err != nil {
		return err
	}
	traced, err := newTracedExecutor(it, -1).RunShard(it.ctx, ss)
	if err != nil {
		return err
	}
	if !bytes.Equal(local.Encode(), traced.Encode()) {
		return fmt.Errorf("traced executor's shard result differs from the local executor's")
	}
	return nil
}

// --- report workload --------------------------------------------------------------

func reportConfig(seed int64, smoke bool) exp.Config {
	cfg := exp.Default()
	cfg.Seed = seed
	cfg.Duration = 0.256
	if smoke {
		cfg.Duration = 0.064
	}
	return cfg
}

func reportIter(it *iter) error {
	cfg := reportConfig(it.seed, it.smoke)
	profcache.Flush()
	tracecache.Flush()
	if err := it.startRun(); err != nil {
		return err
	}
	if it.tr.on {
		// Traced: each runner in registry order, as WriteMarkdownReport
		// calls them, without the rendering.
		for _, e := range exp.Registry {
			res, err := call(it, it.run, "exp."+e.ID, func() (*exp.Result, error) { return e.Run(cfg) })
			if err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			if res == nil || res.ID != e.ID {
				return fmt.Errorf("%s: runner returned no result for its id", e.ID)
			}
			fmt.Fprintln(it.digest, e.ID)
		}
		it.endRun()
		return nil
	}
	var buf bytes.Buffer
	err := exp.WriteMarkdownReport(&buf, cfg)
	it.endRun()
	if err != nil {
		return err
	}
	text := buf.String()
	for _, e := range exp.Registry {
		if !strings.Contains(text, "\n## "+e.ID+" — ") {
			return fmt.Errorf("report lacks the %q section", e.ID)
		}
		fmt.Fprintln(it.digest, e.ID)
	}
	return nil
}
