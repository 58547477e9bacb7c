package checkpoint

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"vrldram/internal/exp"
)

// withExperiments extends the experiment registry for one test.
func withExperiments(t *testing.T, entries ...exp.Experiment) []string {
	t.Helper()
	saved := exp.Registry
	exp.Registry = append(append([]exp.Experiment{}, saved...), entries...)
	t.Cleanup(func() { exp.Registry = saved })
	ids := make([]string, len(entries))
	for i, e := range entries {
		ids[i] = e.ID
	}
	return ids
}

// seeded is a synthetic experiment whose result depends only on its ID and
// the configuration's seed.
func seeded(id string) exp.Runner {
	return func(cfg exp.Config) (*exp.Result, error) {
		r := &exp.Result{ID: id, Title: "synthetic " + id, Headers: []string{"seed"}}
		r.AddRow(fmt.Sprint(cfg.Seed))
		return r, nil
	}
}

// runLogged runs a campaign whose progress goes to the log at path, loading
// it first when resume is set.
func runLogged(t *testing.T, ctx context.Context, path string, resume bool, cfg exp.Config, ids []string) ([]*exp.Result, error) {
	t.Helper()
	progress, err := NewCampaignLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if resume {
		if _, err := progress.Load(); err != nil {
			t.Fatal(err)
		}
	}
	return exp.RunCampaign(ctx, cfg, exp.CampaignOptions{
		IDs: ids, Restore: progress.Restore, OnResult: progress.OnResult,
	})
}

// TestCampaignLogRetriesFailedExperiment: a failed result in the log is
// re-run on resume, and the fresh result replaces it.
func TestCampaignLogRetriesFailedExperiment(t *testing.T) {
	calls := map[string]int{}
	flaky := func(cfg exp.Config) (*exp.Result, error) {
		if calls["t-flaky"]++; calls["t-flaky"] == 1 {
			return nil, errors.New("transient failure")
		}
		return seeded("t-flaky")(cfg)
	}
	steady := func(cfg exp.Config) (*exp.Result, error) {
		calls["t-steady"]++
		return seeded("t-steady")(cfg)
	}
	ids := withExperiments(t, exp.Experiment{ID: "t-steady", Run: steady}, exp.Experiment{ID: "t-flaky", Run: flaky})
	path := filepath.Join(t.TempDir(), "camp.ckpt")
	cfg := exp.Default()
	cfg.Workers = 1

	first, err := runLogged(t, context.Background(), path, false, cfg, ids)
	if err != nil {
		t.Fatal(err)
	}
	if first[0].Failed() || !first[1].Failed() {
		t.Fatalf("first run: want t-steady ok and t-flaky failed, got %+v", first)
	}
	resumed, err := runLogged(t, context.Background(), path, true, cfg, ids)
	if err != nil {
		t.Fatal(err)
	}
	if resumed[1].Failed() {
		t.Fatalf("resume replayed the stored failure: %v", resumed[1].Notes)
	}
	if calls["t-steady"] != 1 || calls["t-flaky"] != 2 {
		t.Errorf("runs = %v, want t-steady once and t-flaky twice", calls)
	}
	progress, err := NewCampaignLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := progress.Load(); err != nil {
		t.Fatal(err)
	}
	if progress.Len() != 2 || progress.Restore("t-flaky").Failed() {
		t.Errorf("log holds %d results, t-flaky failed=%v; want 2 with the failure replaced",
			progress.Len(), progress.Restore("t-flaky").Failed())
	}
}

// TestCampaignLogKillResume: a Workers=4 campaign cancelled part-way and
// resumed from its log equals an uninterrupted run, and does not re-run the
// experiments the log already holds.
func TestCampaignLogKillResume(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		mu   sync.Mutex
		runs = map[string]int{}
		kill = true
	)
	var entries []exp.Experiment
	for i := 0; i < 16; i++ {
		id := fmt.Sprintf("t-k%d", i)
		entries = append(entries, exp.Experiment{ID: id, Run: func(cfg exp.Config) (*exp.Result, error) {
			mu.Lock()
			runs[id]++
			killNow := kill && id == "t-k6"
			mu.Unlock()
			if killNow {
				cancel()
			}
			return seeded(id)(cfg)
		}})
	}
	ids := withExperiments(t, entries...)
	cfg := exp.Default()
	cfg.Workers = 4
	path := filepath.Join(t.TempDir(), "camp.ckpt")

	partial, err := runLogged(t, ctx, path, false, cfg, ids)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if len(partial) == len(ids) {
		t.Fatal("the interrupted run finished every experiment; the test interrupts nothing")
	}
	mu.Lock()
	kill = false
	saved := map[string]bool{}
	for _, r := range partial {
		saved[r.ID] = true
	}
	mu.Unlock()

	resumed, err := runLogged(t, context.Background(), path, true, cfg, ids)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.RunCampaign(context.Background(), cfg, exp.CampaignOptions{IDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, want) {
		t.Fatalf("resumed campaign differs from an uninterrupted one\nresumed: %+v\nwant:    %+v", resumed, want)
	}
	mu.Lock()
	defer mu.Unlock()
	for id := range saved {
		if runs[id] != 2 { // the interrupted run and the uninterrupted one
			t.Errorf("%s ran %d times; the resume re-ran a logged result", id, runs[id])
		}
	}
}
