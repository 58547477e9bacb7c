// Command vrlexp regenerates the tables and figures of the VRL-DRAM paper.
// Experiments run as a crash-tolerant campaign, up to -workers at a time
// (each fanning its cells out on the same bound) and printed in the paper's
// order: a panicking or erroring experiment is recorded as a failure and
// the rest of the campaign completes, -timeout bounds each experiment's
// wall-clock time from its start, and -checkpoint/-resume persist completed
// results across interruptions so a killed campaign picks up where it left
// off, re-running the experiments that failed.
//
// Usage:
//
//	vrlexp -list
//	vrlexp -exp fig4
//	vrlexp -exp all -seed 7 -duration 0.768
//	vrlexp -exp all -timeout 2m -checkpoint campaign.ckpt
//	vrlexp -exp all -checkpoint campaign.ckpt -resume
//	vrlexp -exp all -remote 127.0.0.1:7421
//
// With -remote the campaign runs on a vrlserved instance instead of in
// process: the client retries through connection loss and server restarts,
// and the server checkpoints per experiment, so the command survives both
// ends crashing. -checkpoint, -resume, -timeout, and -workers are
// server-side concerns and do not combine with -remote.
//
// Exit status: 0 on success, 1 on a usage or I/O error or an interrupted
// campaign, 4 when the campaign finished but one or more experiments
// failed (timed out, panicked, or errored).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"vrldram"
	"vrldram/internal/checkpoint"
	"vrldram/internal/cli"
	"vrldram/internal/exp"
	"vrldram/internal/serve"
)

func main() {
	var (
		expID      = flag.String("exp", "all", "experiment ID (see -list) or 'all'")
		seed       = flag.Int64("seed", 0, "override the deterministic seed (0 = paper default)")
		duration   = flag.Float64("duration", 0, "override the simulation window in seconds (0 = paper default)")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		format     = flag.String("format", "table", "output format: table or csv")
		timeout    = flag.Duration("timeout", 0, "wall-clock limit per experiment (0 = none)")
		ckptPath   = flag.String("checkpoint", "", "persist completed results to this file (atomic, CRC-checked)")
		resume     = flag.Bool("resume", false, "reuse completed results from -checkpoint instead of re-running them (failed ones run again)")
		workers    = flag.Int("workers", 0, "concurrent experiments, and concurrent cells per experiment (0 = GOMAXPROCS; also VRLDRAM_WORKERS env; results are identical for any value)")
		remote     = flag.String("remote", "", "run the campaign on a vrlserved instance at this address")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile (pprof) to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (pprof) to this file at exit")
	)
	flag.Parse()

	if *list {
		for _, e := range vrldram.Experiments() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	}
	if *format != "table" && *format != "csv" {
		fatal(fmt.Errorf("unknown format %q", *format))
	}
	if *resume && *ckptPath == "" {
		fatal(errors.New("-resume requires -checkpoint"))
	}

	var ids []string // nil = whole registry, in the paper's order
	if *expID != "all" {
		ids = []string{*expID}
	}

	if *remote != "" {
		if *ckptPath != "" || *resume || *timeout != 0 || *workers != 0 {
			fatal(errors.New("-remote runs the campaign server-side; -checkpoint, -resume, -timeout, and -workers do not apply"))
		}
		os.Exit(runRemote(*remote, ids, *seed, *duration, *format))
	}

	cfg := exp.DefaultWith(*seed, *duration)
	cfg.Workers = resolveWorkers(*workers)

	prof := cli.StartProfiles("vrlexp", *cpuprofile, *memprofile)

	ctx, stop := cli.SignalContext(context.Background())
	defer stop()

	opts := exp.CampaignOptions{IDs: ids, Timeout: *timeout}

	// Campaign progress file: the log is re-saved after every experiment,
	// so a killed campaign loses at most the experiments in flight.
	if *ckptPath != "" {
		progress, err := checkpoint.NewCampaignLog(*ckptPath)
		if err != nil {
			fatal(err)
		}
		if *resume {
			if from, err := progress.Load(); err != nil {
				fmt.Fprintf(os.Stderr, "vrlexp: no resumable campaign state (%v); starting fresh\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "vrlexp: resuming campaign from %s (%d experiment(s) logged; failed ones run again)\n", from, progress.Len())
			}
		}
		opts.Restore, opts.OnResult = progress.Restore, progress.OnResult
	}

	start := time.Now()
	results, err := exp.RunCampaign(ctx, cfg, opts)
	printResults(results, *format)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "vrlexp: campaign interrupted after %d experiment(s) (%v elapsed)\n", len(results), time.Since(start).Round(time.Second))
			if *ckptPath != "" {
				fmt.Fprintf(os.Stderr, "vrlexp: completed results saved to %s; rerun with -resume to continue\n", *ckptPath)
			}
		}
		fmt.Fprintf(os.Stderr, "vrlexp: %v\n", err)
		prof.Exit(1)
	}
	if countFailed(results) > 0 {
		prof.Exit(4)
	}
	prof.Exit(0)
}

// runRemote submits the campaign to a vrlserved instance and returns the
// process exit code. The client retries through connection loss and server
// restarts; SIGINT/SIGTERM abandons the wait (the session keeps running
// server-side and a rerun with the same parameters starts a new one).
func runRemote(addr string, ids []string, seed int64, duration float64, format string) int {
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()
	cl := serve.NewClient(serve.ClientOptions{
		Addr: addr,
		Logf: func(f string, args ...any) { fmt.Fprintf(os.Stderr, "vrlexp: remote: "+f+"\n", args...) },
	})
	results, err := cl.RunCampaign(ctx, serve.CampaignSpec{IDs: ids, Seed: seed, Duration: duration})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "vrlexp: interrupted while waiting on %s\n", addr)
			return cli.StatusInterrupted
		}
		fmt.Fprintf(os.Stderr, "vrlexp: %v\n", err)
		return 1
	}
	printResults(results, format)
	if countFailed(results) > 0 {
		return 4
	}
	return 0
}

func printResults(results []*exp.Result, format string) {
	for _, res := range results {
		var perr error
		switch format {
		case "table":
			perr = res.Fprint(os.Stdout)
		case "csv":
			perr = res.FprintCSV(os.Stdout)
		}
		if perr != nil {
			fatal(perr)
		}
	}
}

func countFailed(results []*exp.Result) int {
	failed := 0
	for _, res := range results {
		if res.Failed() {
			failed++
			fmt.Fprintf(os.Stderr, "vrlexp: experiment %s failed (see its notes)\n", res.ID)
		}
	}
	return failed
}

// resolveWorkers applies the precedence -workers flag > VRLDRAM_WORKERS env >
// 0 (GOMAXPROCS, resolved inside exp). The env var lets batch scripts pin
// concurrency without threading a flag through every invocation.
func resolveWorkers(flagVal int) int {
	if flagVal > 0 {
		return flagVal
	}
	if env := os.Getenv("VRLDRAM_WORKERS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n < 0 {
			fatal(fmt.Errorf("invalid VRLDRAM_WORKERS %q", env))
		}
		return n
	}
	return 0
}

func fatal(err error) { cli.Fatal("vrlexp", err) }
