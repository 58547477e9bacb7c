package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// childEnv marks a process as a benchmark child; its value is the parent's
// wall clock at spawn, in Unix nanoseconds.
const childEnv = "VRLBENCH_CHILD"

// childMain runs one iteration (or the verification) of a workload and
// writes a childOut as JSON to stdout. It returns the exit code.
func childMain(args []string) int {
	base := time.Now()
	fs := flag.NewFlagSet("vrlbench child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload")
	seed := fs.Int64("seed", 42, "input seed")
	smoke := fs.Bool("smoke", false, "tiny sizes")
	traced := fs.Bool("trace", false, "record spans")
	verify := fs.Bool("verify", false, "run the verification instead of an iteration")
	setupOnly := fs.Bool("setup-only", false, "stop where the timed phase would start")
	iterN := fs.Int("iter", 0, "iteration id recorded in spans")
	workdir := fs.String("workdir", os.TempDir(), "scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spawnNS, err := strconv.ParseInt(os.Getenv(childEnv), 10, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vrlbench child: bad %s: %v\n", childEnv, err)
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && *verify && w.verify == nil {
		err = fmt.Errorf("workload %s has no verification", w.name)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "vrlbench child: %v\n", err)
		return 2
	}
	tr := &tracer{on: *traced, iter: *iterN, base: base,
		offset: float64(base.UnixNano()-spawnNS) / 1e9}
	it := &iter{
		ctx: context.Background(), seed: *seed, smoke: *smoke, setupOnly: *setupOnly,
		workdir: *workdir, tr: tr, digest: sha256.New(), out: childOut{Counts: map[string]float64{}},
	}
	// Set-up starts at spawn; proc.start covers exec and runtime start-up.
	it.setup = tr.beginAt("setup", -1, 0)
	tr.end(tr.beginAt("proc.start", it.setup, 0))
	run := w.iter
	if *verify {
		run = w.verify
	}
	if err := run(it); err != nil && !(*setupOnly && errors.Is(err, errSetupOnly)) {
		fmt.Fprintf(os.Stderr, "vrlbench child %s: %v\n", w.name, err)
		return 1
	}
	it.out.Digest = hex.EncodeToString(it.digest.Sum(nil))
	it.out.Spans = tr.spans
	if err := json.NewEncoder(os.Stdout).Encode(it.out); err != nil {
		fmt.Fprintf(os.Stderr, "vrlbench child: %v\n", err)
		return 1
	}
	return 0
}

// childRun is one child process as the parent saw it.
type childRun struct {
	out    childOut
	rssMiB float64
	err    error
}

// spawn runs one child of this executable to completion; mode is empty
// for an untraced iteration, or one of the child's -trace, -verify and
// -setup-only flags.
func spawn(o options, w workload, iterN int, mode string) childRun {
	self, err := os.Executable()
	if err != nil {
		return childRun{err: err}
	}
	args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
		"-iter", strconv.Itoa(iterN), "-workdir", o.workdir}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if mode != "" {
		args = append(args, mode)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), childEnv+"="+strconv.FormatInt(time.Now().UnixNano(), 10))
	stdout, err := cmd.Output()
	r := childRun{}
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			r.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		r.err = fmt.Errorf("child %s iter %d: %w", w.name, iterN, err)
		return r
	}
	if err := json.Unmarshal(stdout, &r.out); err != nil {
		r.err = fmt.Errorf("child %s iter %d: bad output: %w", w.name, iterN, err)
	}
	return r
}
