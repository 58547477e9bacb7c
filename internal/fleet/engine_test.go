package fleet

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"
)

// fakeExec is a scriptable executor over fakeResult: run decides each
// attempt's fate keyed by (shard, per-shard call count).
type fakeExec struct {
	name  string
	slots int

	mu    sync.Mutex
	calls map[int]int // per-shard attempts seen, hedges included
	run   func(ss ShardSpec, call int) error
}

func newFakeExec(name string, slots int, run func(ss ShardSpec, call int) error) *fakeExec {
	return &fakeExec{name: name, slots: slots, calls: map[int]int{}, run: run}
}

func (f *fakeExec) Name() string { return f.name }
func (f *fakeExec) Slots() int   { return f.slots }

func (f *fakeExec) RunShard(ctx context.Context, ss ShardSpec) (ShardResult, error) {
	f.mu.Lock()
	f.calls[ss.Index]++
	call := f.calls[ss.Index]
	f.mu.Unlock()
	if f.run != nil {
		if err := f.run(ss, call); err != nil {
			return ShardResult{}, err
		}
	}
	if err := ctx.Err(); err != nil {
		return ShardResult{}, err
	}
	return fakeResult(ss), nil
}

func (f *fakeExec) callCount(shard int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[shard]
}

// fastOpts keeps engine test retries in the millisecond range.
func fastOpts() Options {
	return Options{
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
	}
}

// wantSum merges fakeResult over every non-skipped shard - the oracle every
// engine test compares against, byte for byte.
func wantSum(spec Spec, skip map[int]bool) []byte {
	sum := NewSummary()
	for _, ss := range spec.Shards() {
		if skip[ss.Index] {
			continue
		}
		if err := sum.Merge(fakeResult(ss).Sum); err != nil {
			panic(err)
		}
	}
	return sum.Encode()
}

func TestEngineCleanRun(t *testing.T) {
	spec := testFleetSpec()
	ex := newFakeExec("a", 3, nil)
	rep, err := Run(context.Background(), spec, []Executor{ex}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() || rep.ShardsDone != spec.NumShards() {
		t.Fatalf("clean run incomplete: %d/%d done, quarantined %v", rep.ShardsDone, rep.ShardsTotal, rep.QuarantinedShards())
	}
	if got := rep.Sum.Encode(); string(got) != string(wantSum(spec, nil)) {
		t.Fatal("clean-run summary diverges from sequential merge")
	}
	if rep.Retries != 0 || rep.Hedges != 0 {
		t.Fatalf("clean run reports %d retries, %d hedges", rep.Retries, rep.Hedges)
	}
}

func TestEngineRetriesTransientFailure(t *testing.T) {
	spec := testFleetSpec()
	ex := newFakeExec("a", 2, func(ss ShardSpec, call int) error {
		if ss.Index == 1 && call <= 2 {
			return fmt.Errorf("transient wobble %d", call)
		}
		return nil
	})
	rep, err := Run(context.Background(), spec, []Executor{ex}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("retryable failure must not cost coverage: quarantined %v", rep.QuarantinedShards())
	}
	if rep.Retries < 2 {
		t.Fatalf("report shows %d retries, want >= 2", rep.Retries)
	}
	if got := ex.callCount(1); got != 3 {
		t.Fatalf("shard 1 ran %d times, want 3", got)
	}
	if string(rep.Sum.Encode()) != string(wantSum(spec, nil)) {
		t.Fatal("summary after retries diverges from sequential merge")
	}
}

// TestEngineQuarantinesPoisonShard is the coverage-report contract: a shard
// that fails every attempt is set aside, the campaign completes, and the
// report names exactly that shard while the merged summary covers exactly
// the rest.
func TestEngineQuarantinesPoisonShard(t *testing.T) {
	spec := testFleetSpec()
	const poison = 2
	ex := newFakeExec("a", 2, func(ss ShardSpec, call int) error {
		if ss.Index == poison {
			return errors.New("poison shard")
		}
		return nil
	})
	rep, err := Run(context.Background(), spec, []Executor{ex}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete() {
		t.Fatal("poisoned campaign must not claim completeness")
	}
	if got := rep.QuarantinedShards(); len(got) != 1 || got[0] != poison {
		t.Fatalf("quarantined %v, want exactly [%d]", got, poison)
	}
	q := rep.Quarantined[0]
	if q.Attempts != 3 || q.LastErr != "poison shard" {
		t.Fatalf("quarantine record %+v, want 3 attempts and the poison cause", q)
	}
	if rep.DevicesSkipped() != int64(q.Count) {
		t.Fatalf("DevicesSkipped = %d, want %d", rep.DevicesSkipped(), q.Count)
	}
	if string(rep.Sum.Encode()) != string(wantSum(spec, map[int]bool{poison: true})) {
		t.Fatal("summary must cover exactly the non-quarantined population")
	}
}

func TestEnginePermanentErrorSkipsRetries(t *testing.T) {
	spec := testFleetSpec()
	ex := newFakeExec("a", 2, func(ss ShardSpec, call int) error {
		if ss.Index == 0 {
			return MarkPermanent(errors.New("rejected for keeps"))
		}
		return nil
	})
	rep, err := Run(context.Background(), spec, []Executor{ex}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.QuarantinedShards(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("quarantined %v, want [0]", got)
	}
	if got := ex.callCount(0); got != 1 {
		t.Fatalf("permanent failure burned %d attempts, want 1", got)
	}
}

func TestEnginePanicIsolation(t *testing.T) {
	spec := testFleetSpec()
	ex := newFakeExec("a", 2, func(ss ShardSpec, call int) error {
		if ss.Index == 3 && call == 1 {
			panic("executor bug")
		}
		return nil
	})
	rep, err := Run(context.Background(), spec, []Executor{ex}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("a panicking attempt must retry, not sink the campaign: quarantined %v", rep.QuarantinedShards())
	}
	if string(rep.Sum.Encode()) != string(wantSum(spec, nil)) {
		t.Fatal("summary after panic recovery diverges")
	}
}

// TestEngineShardTimeout pins the deadline plumbing: the context an executor
// receives must carry the configured per-attempt timeout.
func TestEngineShardTimeout(t *testing.T) {
	spec := testFleetSpec()
	sawDeadline := make(chan time.Duration, 1)
	probe := &deadlineProbe{inner: newFakeExec("a", 1, nil), got: sawDeadline}
	opts := fastOpts()
	opts.ShardTimeout = 250 * time.Millisecond
	if _, err := Run(context.Background(), spec, []Executor{probe}, opts); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-sawDeadline:
		if d <= 0 || d > 250*time.Millisecond {
			t.Fatalf("attempt deadline %v, want within (0, 250ms]", d)
		}
	default:
		t.Fatal("executor never saw an attempt deadline")
	}
}

type deadlineProbe struct {
	inner Executor
	got   chan time.Duration
}

func (p *deadlineProbe) Name() string { return p.inner.Name() }
func (p *deadlineProbe) Slots() int   { return p.inner.Slots() }
func (p *deadlineProbe) RunShard(ctx context.Context, ss ShardSpec) (ShardResult, error) {
	if dl, ok := ctx.Deadline(); ok {
		select {
		case p.got <- time.Until(dl):
		default:
		}
	}
	return p.inner.RunShard(ctx, ss)
}

// TestEngineHedgesStraggler wires a shard whose first attempt stalls until a
// hedged duplicate lands, and checks first-result-wins accounting: the shard
// is counted once, the summary is exact, and the hedge shows up in the
// dispatch counters without charging the attempt budget.
func TestEngineHedgesStraggler(t *testing.T) {
	spec := testFleetSpec()
	const straggler = 1
	release := make(chan struct{})
	var once sync.Once
	ex := newFakeExec("a", 2, nil)
	ex.run = func(ss ShardSpec, call int) error {
		if ss.Index == straggler {
			if call == 1 {
				<-release // stall until the hedge completes
			} else {
				once.Do(func() { close(release) })
			}
		}
		return nil
	}
	opts := fastOpts()
	opts.HedgeAfter = 20 * time.Millisecond
	rep, err := Run(context.Background(), spec, []Executor{ex}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("hedged campaign incomplete: quarantined %v", rep.QuarantinedShards())
	}
	if rep.Hedges < 1 {
		t.Fatalf("report shows %d hedges, want >= 1", rep.Hedges)
	}
	if rep.Retries != 0 {
		t.Fatalf("hedges must not charge the retry counter, got %d retries", rep.Retries)
	}
	if string(rep.Sum.Encode()) != string(wantSum(spec, nil)) {
		t.Fatal("summary after hedge race diverges - a shard was double-counted or lost")
	}
}

// TestEngineResumeAfterInterrupt kills a campaign partway (context cancel,
// the in-process stand-in for a dead driver) and resumes it from the same
// manifest: the resumed run must redo only unfinished shards and the final
// summary must be byte-identical to an uninterrupted run.
func TestEngineResumeAfterInterrupt(t *testing.T) {
	spec := testFleetSpec()
	path := filepath.Join(t.TempDir(), "fleet.manifest")

	ctx, cancel := context.WithCancel(context.Background())
	var done sync.Map
	var fired sync.Once
	ex := newFakeExec("a", 1, nil)
	ex.run = func(ss ShardSpec, call int) error {
		var n int
		done.Range(func(_, _ any) bool { n++; return true })
		if n >= 2 {
			fired.Do(cancel) // driver dies after two shards landed
			return ctx.Err()
		}
		done.Store(ss.Index, true)
		return nil
	}
	opts := fastOpts()
	opts.ManifestPath = path
	_, err := Run(ctx, spec, []Executor{ex}, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}

	ex2 := newFakeExec("b", 2, nil)
	rep, err := Run(context.Background(), spec, []Executor{ex2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("resumed campaign incomplete: quarantined %v", rep.QuarantinedShards())
	}
	if rep.Resumed < 2 {
		t.Fatalf("resumed run inherited %d done shards, want >= 2", rep.Resumed)
	}
	for s := 0; s < spec.NumShards(); s++ {
		if _, ok := done.Load(s); ok && ex2.callCount(s) != 0 {
			t.Fatalf("resumed run re-ran already-done shard %d", s)
		}
	}
	if string(rep.Sum.Encode()) != string(wantSum(spec, nil)) {
		t.Fatal("resumed summary diverges from uninterrupted merge")
	}
}

// TestEngineInterruptRefundsBudget checks the cancellation path never eats
// the retry budget: a shard interrupted mid-attempt resumes with its full
// budget and can still be retried MaxAttempts times afterwards.
func TestEngineInterruptRefundsBudget(t *testing.T) {
	spec := testFleetSpec()
	path := filepath.Join(t.TempDir(), "fleet.manifest")

	ctx, cancel := context.WithCancel(context.Background())
	ex := newFakeExec("a", 1, nil)
	ex.run = func(ss ShardSpec, call int) error {
		cancel() // die inside the very first attempt
		return ctx.Err()
	}
	opts := fastOpts()
	opts.ManifestPath = path
	if _, err := Run(ctx, spec, []Executor{ex}, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}

	man, err := NewManifest(spec, path)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range man.Snapshot() {
		if s.Attempts != 0 {
			t.Fatalf("shard %d resumed with %d charged attempts, want 0 (interrupt must refund)", i, s.Attempts)
		}
		if s.State != ShardPlanned {
			t.Fatalf("shard %d resumed in state %s, want planned", i, s.State)
		}
	}
}

func TestEngineMultipleExecutors(t *testing.T) {
	spec := testFleetSpec()
	a := newFakeExec("a", 1, nil)
	b := newFakeExec("b", 1, nil)
	rep, err := Run(context.Background(), spec, []Executor{a, b}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatal("two-executor campaign incomplete")
	}
	if string(rep.Sum.Encode()) != string(wantSum(spec, nil)) {
		t.Fatal("summary across two executors diverges")
	}
}

// oneShardSpec is testFleetSpec as a single shard.
func oneShardSpec() Spec {
	spec := testFleetSpec()
	spec.ShardSize = spec.Devices
	return spec
}

// TestEngineReturnsOnSettle: with one shard on two slots, the idle slot's
// worker is parked while the shard runs, and the campaign must end as soon
// as the shard settles instead of when that worker next looks. Judged by
// the median of 20 campaigns, so one slow scheduling does not fail it.
func TestEngineReturnsOnSettle(t *testing.T) {
	spec := oneShardSpec()
	var tails []time.Duration
	for i := 0; i < 20; i++ {
		var settled time.Time
		ex := newFakeExec("a", 2, nil)
		ex.run = func(ShardSpec, int) error {
			time.Sleep(2 * time.Millisecond) // let the other worker park
			settled = time.Now()
			return nil
		}
		rep, err := Run(context.Background(), spec, []Executor{ex}, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		tails = append(tails, time.Since(settled))
		if !rep.Complete() {
			t.Fatal("one-shard campaign incomplete")
		}
	}
	slices.Sort(tails)
	if med := tails[len(tails)/2]; med > 5*time.Millisecond {
		t.Fatalf("median return %v after the last settle, want <= 5ms (all: %v)", med, tails)
	}
}

// TestEngineBackoffGateHolds: a failed shard's retry must wait out its
// jittered backoff even though the failure wakes every parked worker.
func TestEngineBackoffGateHolds(t *testing.T) {
	spec := oneShardSpec()
	opts := fastOpts()
	opts.BaseBackoff = 40 * time.Millisecond
	opts.MaxBackoff = 40 * time.Millisecond
	var failedAt, retriedAt time.Time
	ex := newFakeExec("a", 2, func(ss ShardSpec, call int) error {
		if call == 1 {
			failedAt = time.Now()
			return errors.New("transient")
		}
		retriedAt = time.Now()
		return nil
	})
	rep, err := Run(context.Background(), spec, []Executor{ex}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() || ex.callCount(0) != 2 {
		t.Fatalf("campaign complete %v after %d calls, want complete after 2", rep.Complete(), ex.callCount(0))
	}
	if gap, want := retriedAt.Sub(failedAt), opts.withDefaults().backoff(0, 1); gap < want {
		t.Fatalf("retry ran %v after the failure, before its %v backoff", gap, want)
	}
}

// TestEngineCancelReturnsPromptly cancels a campaign while one slot runs a
// shard and the other is parked on a 10 s backoff gate: Run must return at
// once, the interrupted shard parked uncharged and the failed one keeping
// the attempt it spent.
func TestEngineCancelReturnsPromptly(t *testing.T) {
	spec := testFleetSpec()
	spec.ShardSize = spec.Devices / 2
	path := filepath.Join(t.TempDir(), "fleet.manifest")
	opts := fastOpts()
	opts.ManifestPath = path
	opts.BaseBackoff = 10 * time.Second
	opts.MaxBackoff = 10 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	running := make(chan struct{})
	ex := newFakeExec("a", 2, nil)
	ex.run = func(ss ShardSpec, call int) error {
		if ss.Index == 0 {
			return errors.New("transient")
		}
		close(running)
		<-ctx.Done()
		return ctx.Err()
	}
	var cancelled time.Time
	go func() {
		select {
		case <-running:
		case <-ctx.Done():
			return
		}
		time.Sleep(5 * time.Millisecond) // let shard 0's failure settle
		cancelled = time.Now()
		cancel()
	}()
	_, err := Run(ctx, spec, []Executor{ex}, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}
	if d := time.Since(cancelled); d > time.Second {
		t.Fatalf("cancelled campaign returned %v after the cancel", d)
	}
	man, err := NewManifest(spec, path)
	if err != nil {
		t.Fatal(err)
	}
	snap := man.Snapshot()
	if s := snap[1]; s.State != ShardPlanned || s.Attempts != 0 {
		t.Fatalf("interrupted shard resumes %s with %d attempts, want planned with 0", s.State, s.Attempts)
	}
	if s := snap[0]; s.State != ShardRetrying || s.Attempts != 1 {
		t.Fatalf("failed shard resumes %s with %d attempts, want retrying with 1", s.State, s.Attempts)
	}
}
