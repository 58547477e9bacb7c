package exp

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
)

// parallelizedExperiments lists every experiment whose cells fan out through
// forEachCell. The determinism test below is the contract that lets them:
// any experiment added here (or newly parallelized without being added -
// keep this list in sync) must produce byte-identical Results at every
// worker count.
var parallelizedExperiments = []string{
	"fig4", "perf", "sec31",
	"abl-guardband", "abl-nbits", "abl-decay", "abl-coverage",
	"abl-temp", "abl-density",
	"abl-rank", "abl-rankperf", "abl-elastic", "abl-salp",
	"resilience", "scrub",
}

// TestParallelDeterminism is the Workers=1 vs Workers=8 contract: for every
// parallelized experiment and two seeds, the rendered Result (headers, every
// row cell, every note) must be byte-identical regardless of how the cells
// were scheduled.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every parallelized experiment four times")
	}
	for _, id := range parallelizedExperiments {
		e, err := Find(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, seed := range []int64{42, 7} {
			cfg := Default()
			cfg.Duration = 0.128 // equality is the assertion, not the values
			cfg.Seed = seed

			cfg.Workers = 1
			seq, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s seed=%d workers=1: %v", id, seed, err)
			}
			cfg.Workers = 8
			par, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s seed=%d workers=8: %v", id, seed, err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("%s seed=%d: Workers=1 and Workers=8 results differ\nworkers=1: %+v\nworkers=8: %+v",
					id, seed, seq, par)
			}
		}
	}
}

func TestForEachCellVisitsEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 100} {
		const n = 37
		var visited [n]int32
		cfg := Config{Workers: workers}
		err := forEachCell(context.Background(), cfg, n, func(_ context.Context, i int) error {
			atomic.AddInt32(&visited[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range visited {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachCellFirstErrorWinsAndCancels(t *testing.T) {
	boom := errors.New("boom")
	var cancelled int32
	cfg := Config{Workers: 4}
	err := forEachCell(context.Background(), cfg, 64, func(ctx context.Context, i int) error {
		if i == 5 {
			return boom
		}
		if ctx.Err() != nil {
			atomic.AddInt32(&cancelled, 1)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
}

func TestForEachCellZeroAndSequential(t *testing.T) {
	if err := forEachCell(context.Background(), Config{}, 0, nil); err != nil {
		t.Fatalf("n=0 must be a no-op, got %v", err)
	}
	// Workers=1 runs in submission order on a pool of one worker.
	var order []int
	err := forEachCell(context.Background(), Config{Workers: 1}, 5, func(_ context.Context, i int) error {
		order = append(order, i) // no atomics needed: sequential contract
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order broken: %v", order)
		}
	}
	// Sequential path stops at the first error without visiting the rest.
	boom := errors.New("boom")
	calls := 0
	err = forEachCell(context.Background(), Config{Workers: 1}, 5, func(_ context.Context, i int) error {
		calls++
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || calls != 3 {
		t.Fatalf("err=%v calls=%d, want boom after 3 calls", err, calls)
	}
}
