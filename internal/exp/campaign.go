package exp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrorNote prefixes the note a failed experiment's placeholder Result
// carries, so renderers and exit-code logic can recognize failures even
// after the result has round-tripped through a campaign checkpoint.
const ErrorNote = "ERROR: "

// CampaignOptions configures RunCampaign.
type CampaignOptions struct {
	// IDs selects a subset of the registry, in the given order; nil runs
	// every registered experiment in the paper's order.
	IDs []string
	// Timeout is the per-experiment wall-clock budget (0 = unlimited),
	// counted from the experiment's start. An experiment that exceeds it is
	// abandoned: its goroutine is left to finish in the background
	// (experiments have no cancellation hook) and its slot gets an error
	// Result instead.
	Timeout time.Duration
	// Restore, when non-nil, is consulted before each experiment is
	// scheduled; a non-nil Result that has not Failed is reused verbatim
	// (and OnResult is not re-invoked for it). This is how a resumed
	// campaign skips completed work and retries failed work.
	Restore func(id string) *Result
	// OnResult, when non-nil, observes each freshly produced Result as soon
	// as the experiment finishes - the campaign checkpointing hook. Calls
	// never overlap and come in completion order, which at Workers > 1 is
	// not the plan's order.
	OnResult func(*Result) error
}

// RunCampaign runs a sequence of experiments as one crash-tolerant
// campaign on cfg.workers() goroutines: each experiment runs with a
// wall-clock timeout and panic isolation, and a failing, panicking, or
// timed-out experiment contributes an error Result (ErrorNote-prefixed
// note) instead of killing the rest of the campaign. The results come back
// in plan order. Cancelling the context, or an OnResult error, starts no
// further experiment, abandons the ones in flight, and returns the results
// already restored or handed to OnResult with the error.
func RunCampaign(ctx context.Context, cfg Config, opts CampaignOptions) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	outs, err := drive(ctx, cfg, opts)
	results := make([]*Result, len(outs))
	for i, o := range outs {
		results[i] = o.res
	}
	return results, err
}

// outcome is one planned experiment's slot in a drive.
type outcome struct {
	Experiment
	res     *Result // an ErrorNote placeholder when err is set
	err     error
	elapsed time.Duration
	done    bool // restored, or fresh and handed to OnResult
}

// drive is the one loop over registry experiments, behind both RunCampaign
// and WriteMarkdownReport. It resolves opts.IDs to a plan, reuses what
// opts.Restore returns, and runs the rest through forEachCell, each under
// runIsolated with opts.Timeout. Fresh results reach opts.OnResult one at a
// time, in completion order. It returns the done outcomes in plan order:
// all of them unless the context was cancelled or the hook failed.
func drive(ctx context.Context, cfg Config, opts CampaignOptions) ([]outcome, error) {
	plan := Registry
	if opts.IDs != nil {
		plan = make([]Experiment, len(opts.IDs))
		for i, id := range opts.IDs {
			e, err := Find(id)
			if err != nil {
				return nil, err
			}
			plan[i] = e
		}
	}
	outs := make([]outcome, len(plan))
	var fresh []int
	for i, e := range plan {
		outs[i].Experiment = e
		if opts.Restore != nil {
			if res := opts.Restore(e.ID); res != nil && !res.Failed() {
				outs[i].res, outs[i].done = res, true
				continue
			}
		}
		fresh = append(fresh, i)
	}

	var (
		hookMu     sync.Mutex
		hookFailed bool
	)
	err := forEachCell(ctx, cfg, len(fresh), func(ctx context.Context, k int) error {
		o := &outs[fresh[k]]
		start := time.Now()
		o.res, o.err = runIsolated(ctx, cfg, o.Run, opts.Timeout)
		o.elapsed = time.Since(start)
		if o.err != nil {
			if ctx.Err() != nil {
				return nil // abandoned by cancellation: not a result
			}
			o.res = &Result{ID: o.ID, Title: o.Title}
			o.res.AddNote("%s%v", ErrorNote, o.err)
		}
		if o.res.ID == "" {
			o.res.ID = o.ID
		}
		// Held across OnResult on purpose: its calls must never overlap.
		hookMu.Lock()
		defer hookMu.Unlock()
		if hookFailed {
			return nil
		}
		o.done = true
		if opts.OnResult != nil {
			if err := opts.OnResult(o.res); err != nil {
				hookFailed = true
				return fmt.Errorf("exp: campaign progress hook for %s: %w", o.ID, err)
			}
		}
		return nil
	})
	done := outs[:0]
	for _, o := range outs {
		if o.done {
			done = append(done, o)
		}
	}
	return done, err
}

// Failed reports whether the result records an experiment failure (an
// ErrorNote-prefixed note), as produced by RunCampaign for an experiment
// that errored, panicked, or timed out.
func (r *Result) Failed() bool {
	for _, n := range r.Notes {
		if len(n) >= len(ErrorNote) && n[:len(ErrorNote)] == ErrorNote {
			return true
		}
	}
	return false
}

// runIsolated executes one experiment in its own goroutine so a panic or a
// hang is contained: a panic becomes an error, and a run that outlives the
// timeout (or the context) is abandoned.
func runIsolated(ctx context.Context, cfg Config, run Runner, timeout time.Duration) (*Result, error) {
	done := make(chan outcome, 1) // buffered: an abandoned run must not leak on send
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- outcome{err: fmt.Errorf("experiment panicked: %v", r)}
			}
		}()
		res, err := run(cfg)
		done <- outcome{res: res, err: err}
	}()

	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, timeout, fmt.Errorf("experiment timed out after %v (abandoned)", timeout))
		defer cancel()
	}
	select {
	case o := <-done:
		if o.err == nil && o.res == nil {
			o.err = errors.New("experiment returned no result")
		}
		return o.res, o.err
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}
