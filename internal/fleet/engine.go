package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Executor runs shards on some substrate - in-process workers, a remote
// vrlserved instance, anything. Implementations must honor the context and
// must be safe for Slots() concurrent RunShard calls. A correct executor is
// a pure function of the ShardSpec: the engine freely retries, hedges, and
// switches executors mid-campaign precisely because every one of them must
// produce the same bytes for the same shard.
type Executor interface {
	Name() string
	Slots() int
	RunShard(ctx context.Context, ss ShardSpec) (ShardResult, error)
}

// PermanentError wraps a failure that no retry can fix (a rejected spec, a
// fatal server verdict). The engine quarantines the shard immediately
// instead of burning the rest of its attempt budget.
type PermanentError struct{ Err error }

func (e *PermanentError) Error() string { return e.Err.Error() }
func (e *PermanentError) Unwrap() error { return e.Err }

// MarkPermanent wraps err as permanent; nil stays nil.
func MarkPermanent(err error) error {
	if err == nil {
		return nil
	}
	return &PermanentError{Err: err}
}

// IsPermanent reports whether err carries a PermanentError anywhere in its
// chain.
func IsPermanent(err error) bool {
	var p *PermanentError
	return errors.As(err, &p)
}

// Options tunes the campaign engine.
type Options struct {
	// ManifestPath persists per-shard state for resume; empty keeps the
	// manifest in memory only.
	ManifestPath string

	// MaxAttempts is the per-shard attempt budget (default 3). A shard
	// whose budget runs out is quarantined, not fatal.
	MaxAttempts int

	// BaseBackoff/MaxBackoff bound the jittered exponential delay between a
	// shard's attempts (defaults 50ms and 2s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// ShardTimeout deadlines each attempt (default 10m); 0 keeps the
	// default, negative disables.
	ShardTimeout time.Duration

	// HedgeAfter launches a duplicate attempt against a shard that has been
	// running this long while other slots sit idle; 0 disables hedging.
	// Hedges do not charge the shard's attempt budget, and the first result
	// to land wins (the loser is discarded unobserved - results are
	// byte-identical by construction, so the race is invisible).
	HedgeAfter time.Duration

	// Seed drives the backoff jitter (default 1); determinism of the
	// RESULT never depends on it.
	Seed int64

	// Logf receives progress lines; nil silences them.
	Logf func(format string, args ...interface{})

	// PreShard, when set, runs before each attempt of each shard with its
	// 1-based attempt number; an error fails the attempt before it reaches
	// an executor. It exists for chaos drills: forcing a shard through the
	// retry/quarantine path without faking an executor.
	PreShard func(shard, attempt int) error
}

func (o Options) withDefaults() Options {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.ShardTimeout == 0 {
		o.ShardTimeout = 10 * time.Minute
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) logf(format string, args ...interface{}) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// backoff returns the delay before attempt n+1 of shard idx: exponential in
// the attempts already charged, capped, with a deterministic jitter factor
// in [0.5, 1.5) so a burst of same-shaped failures does not resynchronize.
func (o Options) backoff(idx, n int) time.Duration {
	d := o.BaseBackoff
	for i := 1; i < n && d < o.MaxBackoff; i++ {
		d *= 2
	}
	if d > o.MaxBackoff {
		d = o.MaxBackoff
	}
	h := splitmix64(uint64(o.Seed) ^ splitmix64(uint64(idx)<<20|uint64(n)))
	return time.Duration(float64(d) * (0.5 + unit(h)))
}

// engine is the dispatcher state shared by every worker goroutine. The
// manifest stays the durable source of truth; these mirrors exist so claim
// decisions never wait on a disk write.
type engine struct {
	ctx  context.Context
	opts Options
	man  *Manifest

	mu       sync.Mutex
	shards   []ShardSpec
	state    []ShardState
	attempts []int       // budget charged per shard
	inflight []int       // running attempts per shard (hedges included)
	started  []time.Time // oldest inflight attempt's start
	hedged   []bool      // a hedge was launched for the current run
	readyAt  []time.Time // backoff gate
	open     int         // shards not yet terminal
	// wake is closed, and replaced, whenever an attempt settles: the one
	// change a parked claim cannot foresee. Backoff gates and hedge ages
	// it can, and it sets a timer for them.
	wake chan struct{}

	launched int64 // attempts handed to executors, hedges included
	retried  int64 // non-hedge launches beyond a shard's first
	hedges   int64
	fail     error // first manifest-persistence failure
}

// Run executes the campaign: every shard of spec dispatched across the
// executors until each is done or quarantined. A context cancellation parks
// the in-flight shards (without charging their budgets) and returns the
// context error; rerunning with the same ManifestPath resumes. Quarantined
// shards do NOT fail the run - the Report says exactly what was covered.
func Run(ctx context.Context, spec Spec, execs []Executor, opts Options) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.WithDefaults()
	if len(execs) == 0 {
		return nil, fmt.Errorf("fleet: no executors")
	}
	man, err := NewManifest(spec, opts.ManifestPath)
	if err != nil {
		return nil, err
	}
	return runWithManifest(ctx, man, execs, opts)
}

func runWithManifest(ctx context.Context, man *Manifest, execs []Executor, opts Options) (*Report, error) {
	spec := man.Spec()
	e := &engine{ctx: ctx, opts: opts, man: man, shards: spec.Shards(), wake: make(chan struct{})}
	n := len(e.shards)
	e.state = make([]ShardState, n)
	e.attempts = make([]int, n)
	e.inflight = make([]int, n)
	e.started = make([]time.Time, n)
	e.hedged = make([]bool, n)
	e.readyAt = make([]time.Time, n)
	for i, s := range man.Snapshot() {
		e.state[i] = s.State
		e.attempts[i] = s.Attempts
		if s.State != ShardDone && s.State != ShardQuarantined {
			e.open++
		}
	}
	if man.ResumedDone() > 0 {
		opts.logf("fleet: resuming: %d/%d shard(s) already done", man.ResumedDone(), n)
	}

	var wg sync.WaitGroup
	for _, ex := range execs {
		slots := ex.Slots()
		if slots < 1 {
			slots = 1
		}
		for s := 0; s < slots; s++ {
			wg.Add(1)
			go func(ex Executor) {
				defer wg.Done()
				e.worker(ex)
			}(ex)
		}
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("fleet: campaign interrupted: %w", err)
	}
	e.mu.Lock()
	fail := e.fail
	e.mu.Unlock()
	if fail != nil {
		return nil, fail
	}
	return e.report()
}

// worker claims and runs shard attempts until the campaign is finished or
// cancelled.
func (e *engine) worker(ex Executor) {
	for {
		idx, attempt, hedge, ok := e.claim()
		if !ok {
			return
		}
		e.runAttempt(ex, idx, attempt, hedge)
	}
}

// claim picks the next attempt for this worker: the lowest-index shard past
// its backoff gate, or - with every real attempt either running or gated - a
// hedge against the longest-running straggler. Until work exists, the
// campaign finishes, or the context dies, it parks: on the wake channel,
// which every settle closes, and on a timer only when a backoff gate opens
// or a running attempt becomes old enough to hedge.
func (e *engine) claim() (idx, attempt int, hedge, ok bool) {
	for {
		e.mu.Lock()
		if e.ctx.Err() != nil || e.open == 0 {
			e.mu.Unlock()
			return 0, 0, false, false
		}
		now := time.Now()
		var wakeAt time.Time // the earliest foreseeable change; zero: none
		later := func(at time.Time) {
			if wakeAt.IsZero() || at.Before(wakeAt) {
				wakeAt = at
			}
		}
		for i := range e.shards {
			if e.state[i] != ShardPlanned && e.state[i] != ShardRetrying {
				continue
			}
			if now.Before(e.readyAt[i]) {
				later(e.readyAt[i])
				continue
			}
			e.state[i] = ShardRunning
			e.attempts[i]++
			e.inflight[i] = 1
			e.started[i] = now
			e.hedged[i] = false
			e.launched++
			if e.attempts[i] > 1 {
				e.retried++
			}
			a := e.attempts[i]
			e.mu.Unlock()
			if err := e.man.MarkRunning(i); err != nil {
				e.noteFailure(err)
			}
			return i, a, false, true
		}
		if e.opts.HedgeAfter > 0 {
			best, bestAge := -1, e.opts.HedgeAfter
			for i := range e.shards {
				if e.state[i] != ShardRunning || e.inflight[i] != 1 || e.hedged[i] {
					continue
				}
				if age := now.Sub(e.started[i]); age >= bestAge {
					best, bestAge = i, age
				} else {
					later(e.started[i].Add(e.opts.HedgeAfter))
				}
			}
			if best >= 0 {
				e.hedged[best] = true
				e.inflight[best]++
				e.launched++
				e.hedges++
				a := e.attempts[best]
				e.mu.Unlock()
				e.opts.logf("fleet: hedging shard %d (running %s)", best, bestAge.Round(time.Millisecond))
				return best, a, true, true
			}
		}
		wake := e.wake
		e.mu.Unlock()
		var t *time.Timer
		var timer <-chan time.Time
		if !wakeAt.IsZero() {
			t = time.NewTimer(wakeAt.Sub(now))
			timer = t.C
		}
		select {
		case <-e.ctx.Done():
		case <-wake:
		case <-timer:
		}
		if t != nil {
			t.Stop()
		}
	}
}

// runAttempt executes one attempt with deadline and panic isolation, then
// settles the outcome.
func (e *engine) runAttempt(ex Executor, idx, attempt int, hedge bool) {
	ss := e.shards[idx]
	actx := e.ctx
	if e.opts.ShardTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(e.ctx, e.opts.ShardTimeout)
		defer cancel()
	}
	var res ShardResult
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("fleet: executor %s panicked on shard %d: %v", ex.Name(), idx, r)
			}
		}()
		if e.opts.PreShard != nil {
			if err := e.opts.PreShard(idx, attempt); err != nil {
				return err
			}
		}
		res, err = ex.RunShard(actx, ss)
		return err
	}()
	e.settle(ex, idx, res, err)
}

// settle folds an attempt's outcome back into the dispatcher state and the
// manifest. First result wins; a loser of a hedge race - success or failure -
// changes nothing.
func (e *engine) settle(ex Executor, idx int, res ShardResult, err error) {
	e.mu.Lock()
	// Whatever the outcome, wake the parked workers to claim again: a
	// terminal shard may end the campaign, a failed one sets a backoff
	// gate.
	close(e.wake)
	e.wake = make(chan struct{})
	e.inflight[idx]--
	if err == nil {
		if e.state[idx] == ShardDone || e.state[idx] == ShardQuarantined {
			e.mu.Unlock()
			return // hedge twin settled first
		}
		e.state[idx] = ShardDone
		e.open--
		e.mu.Unlock()
		if merr := e.man.MarkDone(idx, res); merr != nil {
			e.noteFailure(merr)
		}
		e.opts.logf("fleet: shard %d done on %s (%d/%d open)", idx, ex.Name(), e.openCount(), len(e.shards))
		return
	}
	if e.state[idx] != ShardRunning {
		e.mu.Unlock()
		return // already settled by the twin
	}
	if e.inflight[idx] > 0 {
		// The twin is still running and now owns the shard's fate; this
		// failure is only worth a log line.
		e.mu.Unlock()
		e.opts.logf("fleet: shard %d attempt lost its hedge race with a failure: %v", idx, err)
		return
	}
	if e.ctx.Err() != nil {
		// The campaign is being torn down: park the shard without charging
		// the budget; the resumed driver re-runs it from scratch.
		if e.attempts[idx] > 0 {
			e.attempts[idx]--
		}
		if e.attempts[idx] > 0 {
			e.state[idx] = ShardRetrying
		} else {
			e.state[idx] = ShardPlanned
		}
		e.mu.Unlock()
		if merr := e.man.Uncharge(idx); merr != nil {
			e.noteFailure(merr)
		}
		return
	}
	charged := e.attempts[idx]
	if IsPermanent(err) || charged >= e.opts.MaxAttempts {
		e.state[idx] = ShardQuarantined
		e.open--
		e.mu.Unlock()
		why := "budget exhausted"
		if IsPermanent(err) {
			why = "permanent failure"
		}
		e.opts.logf("fleet: quarantining shard %d after %d attempt(s) (%s): %v", idx, charged, why, err)
		if merr := e.man.MarkQuarantined(idx, err.Error()); merr != nil {
			e.noteFailure(merr)
		}
		return
	}
	delay := e.opts.backoff(idx, charged)
	e.state[idx] = ShardRetrying
	e.readyAt[idx] = time.Now().Add(delay)
	e.mu.Unlock()
	e.opts.logf("fleet: shard %d attempt %d/%d failed on %s, retrying in %s: %v",
		idx, charged, e.opts.MaxAttempts, ex.Name(), delay.Round(time.Millisecond), err)
	if merr := e.man.MarkFailed(idx, err.Error()); merr != nil {
		e.noteFailure(merr)
	}
}

func (e *engine) openCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.open
}

func (e *engine) noteFailure(err error) {
	e.mu.Lock()
	if e.fail == nil {
		e.fail = err
	}
	e.mu.Unlock()
}

// report assembles the final Report from the manifest (the durable truth)
// plus the engine's dispatch counters. Results merge in shard-index order;
// the merge is order-independent anyway, but a fixed order keeps the code
// honest about not needing completion order.
func (e *engine) report() (*Report, error) {
	spec := e.man.Spec()
	r := &Report{
		Spec:        spec,
		Sum:         NewSummary(),
		ShardsTotal: len(e.shards),
		Quarantined: e.man.Quarantines(),
		Attempts:    e.launched,
		Retries:     e.retried,
		Hedges:      e.hedges,
		Resumed:     e.man.ResumedDone(),
	}
	for i := range e.shards {
		res, ok, err := e.man.Result(i)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		r.ShardsDone++
		if err := r.Sum.Merge(res.Sum); err != nil {
			return nil, err
		}
	}
	if r.ShardsDone+len(r.Quarantined) != r.ShardsTotal {
		return nil, fmt.Errorf("fleet: campaign ended with %d done + %d quarantined of %d shards",
			r.ShardsDone, len(r.Quarantined), r.ShardsTotal)
	}
	return r, nil
}
