package exp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withTestExperiments temporarily extends the registry with synthetic
// experiments so campaign behavior can be driven deterministically.
func withTestExperiments(t *testing.T, entries ...Experiment) {
	t.Helper()
	saved := Registry
	Registry = append(append([]Experiment{}, saved...), entries...)
	t.Cleanup(func() { Registry = saved })
}

func okRunner(id string) Runner {
	return func(Config) (*Result, error) {
		r := &Result{ID: id, Title: "synthetic"}
		r.AddRow("ok")
		return r, nil
	}
}

func entry(id string, run Runner) Experiment {
	return Experiment{id, "synthetic " + id, run}
}

func TestCampaignIsolatesPanics(t *testing.T) {
	withTestExperiments(t,
		entry("t-ok", okRunner("t-ok")),
		entry("t-panic", func(Config) (*Result, error) { panic("kaboom") }),
		entry("t-ok2", okRunner("t-ok2")),
	)
	results, err := RunCampaign(context.Background(), Default(), CampaignOptions{
		IDs: []string{"t-ok", "t-panic", "t-ok2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3 (panic must not kill the campaign)", len(results))
	}
	if results[0].Failed() || results[2].Failed() {
		t.Error("healthy experiments marked failed")
	}
	if !results[1].Failed() {
		t.Fatal("panicking experiment not marked failed")
	}
	if results[1].ID != "t-panic" {
		t.Errorf("failure result has ID %q", results[1].ID)
	}
	if !strings.Contains(strings.Join(results[1].Notes, " "), "kaboom") {
		t.Errorf("panic value not preserved in notes: %v", results[1].Notes)
	}
}

func TestCampaignErrorBecomesResult(t *testing.T) {
	withTestExperiments(t,
		entry("t-err", func(Config) (*Result, error) { return nil, errors.New("sim exploded") }),
	)
	results, err := RunCampaign(context.Background(), Default(), CampaignOptions{IDs: []string{"t-err"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !results[0].Failed() {
		t.Fatalf("results = %+v, want one failed placeholder", results)
	}
	if !strings.Contains(strings.Join(results[0].Notes, " "), "sim exploded") {
		t.Errorf("original error lost: %v", results[0].Notes)
	}
}

func TestCampaignTimesOutSlowExperiment(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	withTestExperiments(t,
		entry("t-slow", func(Config) (*Result, error) {
			<-release // hangs until test cleanup
			return &Result{ID: "t-slow"}, nil
		}),
		entry("t-after", okRunner("t-after")),
	)
	results, err := RunCampaign(context.Background(), Default(), CampaignOptions{
		IDs:     []string{"t-slow", "t-after"},
		Timeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2 (timeout must not kill the campaign)", len(results))
	}
	if !results[0].Failed() {
		t.Fatal("hung experiment not marked failed")
	}
	if !strings.Contains(strings.Join(results[0].Notes, " "), "timed out") {
		t.Errorf("timeout not recorded: %v", results[0].Notes)
	}
	if results[1].Failed() {
		t.Error("experiment after the timeout marked failed")
	}
}

func TestCampaignRestoreSkipsCompletedWork(t *testing.T) {
	ran := 0
	withTestExperiments(t,
		entry("t-done", func(Config) (*Result, error) {
			ran++ // must never run: its result is restored
			return &Result{ID: "t-done"}, nil
		}),
		entry("t-fresh", okRunner("t-fresh")),
	)
	stored := &Result{ID: "t-done", Title: "from checkpoint", Notes: []string{"restored"}}
	var observed []string
	results, err := RunCampaign(context.Background(), Default(), CampaignOptions{
		IDs: []string{"t-done", "t-fresh"},
		Restore: func(id string) *Result {
			if id == "t-done" {
				return stored
			}
			return nil
		},
		OnResult: func(r *Result) error {
			observed = append(observed, r.ID)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Error("restored experiment was re-run")
	}
	if results[0] != stored {
		t.Error("restored result not reused verbatim")
	}
	// OnResult is the persistence hook: restored results are already
	// persisted and must not be re-announced.
	if len(observed) != 1 || observed[0] != "t-fresh" {
		t.Errorf("OnResult saw %v, want only the fresh experiment", observed)
	}
}

func TestCampaignOnResultErrorAborts(t *testing.T) {
	withTestExperiments(t,
		entry("t-a", okRunner("t-a")),
		entry("t-b", okRunner("t-b")),
	)
	boom := errors.New("disk full")
	results, err := RunCampaign(context.Background(), Default(), CampaignOptions{
		IDs:      []string{"t-a", "t-b"},
		OnResult: func(*Result) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results before abort, want 1", len(results))
	}
}

func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	withTestExperiments(t,
		entry("t-first", func(Config) (*Result, error) {
			cancel() // campaign is cancelled while this experiment runs
			return &Result{ID: "t-first"}, nil
		}),
		entry("t-never", okRunner("t-never")),
	)
	// Workers=1: "no later experiment ran" is the sequential contract.
	cfg := Default()
	cfg.Workers = 1
	results, err := RunCampaign(ctx, cfg, CampaignOptions{IDs: []string{"t-first", "t-never"}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) > 1 {
		t.Fatalf("campaign kept going after cancellation: %d results", len(results))
	}
}

// TestCampaignParallelContract drives the campaign at Workers=4 with a
// hanging experiment first in the plan, one restored experiment, and the
// rest finishing in reverse plan order.
func TestCampaignParallelContract(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	ids := []string{"t-hang"}
	entries := []Experiment{entry("t-hang", func(Config) (*Result, error) {
		<-release
		return &Result{ID: "t-hang"}, nil
	})}
	const n = 12
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("t-p%d", i)
		ids = append(ids, id)
		delay := time.Duration(n-i) * time.Millisecond
		entries = append(entries, entry(id, func(cfg Config) (*Result, error) {
			time.Sleep(delay)
			return okRunner(id)(cfg)
		}))
	}
	withTestExperiments(t, entries...)
	stored := &Result{ID: "t-p3", Notes: []string{"restored"}}

	var (
		inHook   atomic.Int32
		overlaps atomic.Int32
		mu       sync.Mutex
		seen     []string
	)
	cfg := Default()
	cfg.Workers = 4
	results, err := RunCampaign(context.Background(), cfg, CampaignOptions{
		IDs:     ids,
		Timeout: 500 * time.Millisecond,
		Restore: func(id string) *Result {
			if id == stored.ID {
				return stored
			}
			return nil
		},
		OnResult: func(r *Result) error {
			if inHook.Add(1) != 1 {
				overlaps.Add(1)
			}
			time.Sleep(time.Millisecond)
			mu.Lock()
			seen = append(seen, r.ID)
			mu.Unlock()
			inHook.Add(-1)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ids) {
		t.Fatalf("got %d results, want %d", len(results), len(ids))
	}
	for i, r := range results {
		if r.ID != ids[i] {
			t.Fatalf("result %d is %s, want %s: results must come back in plan order", i, r.ID, ids[i])
		}
	}
	if results[4] != stored {
		t.Error("restored result not reused verbatim")
	}
	if overlaps.Load() != 0 {
		t.Errorf("OnResult calls overlapped %d time(s)", overlaps.Load())
	}
	count := map[string]int{}
	for _, id := range seen {
		count[id]++
	}
	for _, id := range ids {
		want := 1
		if id == stored.ID {
			want = 0 // already persisted: never announced again
		}
		if count[id] != want {
			t.Errorf("OnResult saw %s %d time(s), want %d", id, count[id], want)
		}
	}
	if !results[0].Failed() || !strings.Contains(strings.Join(results[0].Notes, " "), "timed out") {
		t.Errorf("hung experiment not recorded as timed out: %v", results[0].Notes)
	}
	if last := seen[len(seen)-1]; last != "t-hang" {
		t.Errorf("last announced result is %s; the hung experiment held up the others: %v", last, seen)
	}
}

// TestCampaignParallelCancellation: once every worker is busy and the
// context is cancelled, no further experiment starts.
func TestCampaignParallelCancellation(t *testing.T) {
	const workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	var started atomic.Int32
	allBusy := make(chan struct{})
	ids := []string{"t-cancel"}
	entries := []Experiment{entry("t-cancel", func(Config) (*Result, error) {
		if started.Add(1) == workers {
			close(allBusy)
		}
		select {
		case <-allBusy:
		case <-time.After(10 * time.Second):
			return nil, errors.New("the other workers never started")
		}
		cancel()
		return &Result{ID: "t-cancel"}, nil
	})}
	for i := 0; i < 3*workers; i++ {
		id := fmt.Sprintf("t-block%d", i)
		ids = append(ids, id)
		entries = append(entries, entry(id, func(Config) (*Result, error) {
			if started.Add(1) == workers {
				close(allBusy)
			}
			<-release
			return &Result{ID: id}, nil
		}))
	}
	withTestExperiments(t, entries...)
	cfg := Default()
	cfg.Workers = workers
	results, err := RunCampaign(ctx, cfg, CampaignOptions{IDs: ids})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) > 1 {
		t.Fatalf("got %d results; only t-cancel can have finished", len(results))
	}
	time.Sleep(20 * time.Millisecond) // let a wrongly started experiment show itself
	if n := started.Load(); n != workers {
		t.Fatalf("%d experiments started, want %d: experiments started after cancellation", n, workers)
	}
}

// TestCampaignParallelHookErrorStops: after OnResult fails at Workers=4 it
// is never called again, and only its result comes back.
func TestCampaignParallelHookErrorStops(t *testing.T) {
	var ids []string
	var entries []Experiment
	for i := 0; i < 32; i++ {
		id := fmt.Sprintf("t-h%d", i)
		ids = append(ids, id)
		entries = append(entries, entry(id, okRunner(id)))
	}
	withTestExperiments(t, entries...)
	boom := errors.New("disk full")
	var calls atomic.Int32
	cfg := Default()
	cfg.Workers = 4
	results, err := RunCampaign(context.Background(), cfg, CampaignOptions{
		IDs: ids,
		OnResult: func(*Result) error {
			calls.Add(1)
			time.Sleep(time.Millisecond) // let the other workers queue up on the hook
			return boom
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if calls.Load() != 1 || len(results) != 1 {
		t.Fatalf("OnResult called %d time(s), %d result(s) returned; want 1 and 1", calls.Load(), len(results))
	}
}

func TestCampaignRejectsUnknownID(t *testing.T) {
	if _, err := RunCampaign(context.Background(), Default(), CampaignOptions{IDs: []string{"no-such-exp"}}); err == nil {
		t.Fatal("unknown experiment ID accepted")
	}
}

func TestFailedDetection(t *testing.T) {
	r := &Result{Notes: []string{"benign note"}}
	if r.Failed() {
		t.Error("benign note flagged as failure")
	}
	r.AddNote("%sexperiment panicked", ErrorNote)
	if !r.Failed() {
		t.Error("ErrorNote-prefixed note not flagged")
	}
}
