package exp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// workers resolves the effective worker count for this config: Workers if
// positive, else GOMAXPROCS.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// WorkerPool is the experiment engine's bounded execution substrate: a fixed
// set of goroutines draining a task queue. The sweep fan-out (forEachCell)
// spins one up per grid, and the long-running simulation service
// (internal/serve) keeps one alive for the daemon's whole life, multiplexing
// session jobs onto it so the total simulation concurrency is bounded no
// matter how many sessions are connected.
//
// Tasks are plain closures; panic isolation, result slotting, and
// cancellation are the submitter's concern (see forEachCell for the
// deterministic-slotting idiom and internal/serve for per-session panic
// containment).
type WorkerPool struct {
	tasks chan func()
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// NewWorkerPool starts a pool of n workers (n < 1 is forced to 1). The queue
// holds up to n pending tasks beyond the ones executing; Submit blocks once
// it is full, which is the pool's backpressure: a caller that outruns the
// workers waits instead of growing an unbounded queue.
func NewWorkerPool(n int) *WorkerPool {
	if n < 1 {
		n = 1
	}
	p := &WorkerPool{tasks: make(chan func(), n)}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer p.wg.Done()
			for task := range p.tasks {
				task()
			}
		}()
	}
	return p
}

// Submit enqueues a task, blocking while the queue is full. It returns an
// error (and drops the task) if the pool is closed or ctx is cancelled while
// waiting; a nil ctx never cancels.
func (p *WorkerPool) Submit(ctx context.Context, task func()) error {
	if task == nil {
		return fmt.Errorf("exp: nil task submitted")
	}
	// The closed check and the send race benignly: Close is documented to be
	// called only after every Submit has returned (a sequencing contract, not
	// a locking one), so the check exists to turn misuse into an error
	// instead of a panic on a closed channel.
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return fmt.Errorf("exp: worker pool is closed")
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case p.tasks <- task:
		return nil
	case <-done:
		return ctx.Err()
	}
}

// Close stops accepting tasks and blocks until every queued and running task
// has finished. It must not be called concurrently with Submit; callers
// sequence their submitters first (the service stops its sessions before
// draining the pool).
func (p *WorkerPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.tasks)
	p.wg.Wait()
}

// forEachCell is the experiment fan-out primitive. It evaluates fn(i) for
// every i in [0, n) on a bounded pool of cfg.workers() goroutines and
// returns the first error to occur (not necessarily the lowest index's),
// which cancels the rest. When parent is cancelled no further cell starts
// and forEachCell returns parent's error.
//
// Determinism contract: fn must write its output into a preallocated slot
// for index i (typically cells[i] of a slice the caller owns) and must not
// depend on evaluation order or shared mutable state. Under that contract
// the assembled output is byte-identical for every worker count, including
// Workers=1, because reassembly happens by index, not by completion order.
// A pool of one worker runs the cells first in, first out, so Workers=1 is
// the sequential loop and stops at its first error.
//
// fn receives a context it should propagate to cancellable work; after the
// first failure remaining queued indices are skipped and in-flight cells may
// observe ctx cancellation.
func forEachCell(parent context.Context, cfg Config, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	var (
		firstErr error
		errOnce  sync.Once
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	pool := NewWorkerPool(min(cfg.workers(), n))
	for i := 0; i < n && ctx.Err() == nil; i++ {
		// Submit blocks while the queue is full, bounding in-flight work; a
		// cancelled grid stops submitting and skips the remaining indices.
		if pool.Submit(ctx, func() {
			if ctx.Err() != nil {
				return // drain without working once cancelled
			}
			if err := fn(ctx, i); err != nil {
				fail(err)
			}
		}) != nil {
			break
		}
	}
	pool.Close()
	if firstErr == nil {
		return parent.Err()
	}
	return firstErr
}
