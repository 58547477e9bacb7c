// Command bench is the repository benchmark. It runs one or all of three
// workloads, each iteration in a fresh child process, checks their outputs,
// and prints every metric with its unit, median, quartiles and sample count.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {"run_s": {"value": 3.41, "unit": "s"}, ...}}
//
// Usage, from the repository root (bench/run.sh builds and runs it the same
// way with its build outputs under .bench_build/):
//
//	go -C bench run . -workload device-quiet -seed 42 -seconds 40 -trace 0
//	go -C bench run . -seed 42 -o results.json            # all three workloads
//	go -C bench run . -seed 42 -trace 1 -spans spans.json  # traced run: per-layer metrics
//	go -C bench run . -compare base.json head.json         # verdict per workload and metric
//	go -C bench run . -compare b1.json,b2.json h1.json,h2.json  # the same over paired runs
//
// See bench/README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

type options struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	workdir string
}

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout))
}

func parentMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("vrlbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (empty = all)")
	seed := fs.Int64("seed", 42, "seed every input is derived from")
	seconds := fs.Float64("seconds", 40, "measured seconds per workload")
	traceOn := fs.Int("trace", 0, "1 = traced run: alternate traced and untraced iterations and report per-layer metrics")
	spansOut := fs.String("spans", "", "with -trace 1, write every span as JSON to this file")
	resultsOut := fs.String("o", "", "write the results as JSON to this file")
	compare := fs.Bool("compare", false, "compare -o files: -compare base.json head.json, each side one file or a comma-separated list of runs")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration holding the bounds -compare uses")
	smoke := fs.Bool("smoke", false, "tiny sizes, for tests")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for fleet manifests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "vrlbench: -compare needs a base and a head")
			return 2
		}
		return compareMain(stdout, *specPath, fs.Arg(0), fs.Arg(1))
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(os.Stderr, "vrlbench: -trace is 0 or 1")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *traceOn == 1, smoke: *smoke}
	sel := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vrlbench: %v\n", err)
			return 2
		}
		sel = []workload{w}
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "vrlbench: %v\n", err)
		return 1
	}
	abs, err := filepath.Abs(*workdir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vrlbench: %v\n", err)
		return 1
	}
	o.workdir = abs

	var results []*result
	for _, w := range sel {
		r := measure(w, o)
		r.print(stdout, o.trace)
		results = append(results, r)
	}
	if *resultsOut != "" {
		if err := writeJSON(*resultsOut, resultsFile{Seed: o.seed, Results: results}); err != nil {
			fmt.Fprintf(os.Stderr, "vrlbench: %v\n", err)
			return 1
		}
	}
	if *spansOut != "" {
		spans := map[string][]Span{}
		for _, r := range results {
			for _, c := range r.traced {
				spans[r.Workload] = append(spans[r.Workload], c.Spans...)
			}
		}
		if err := writeJSON(*spansOut, spans); err != nil {
			fmt.Fprintf(os.Stderr, "vrlbench: %v\n", err)
			return 1
		}
	}
	return finalLine(stdout, results, o.trace)
}

// finalLine prints the one-line JSON summary and returns the exit code.
// With one workload its metrics are that workload's medians; with several,
// metrics are left out (the tables above and -o carry them).
func finalLine(w io.Writer, results []*result, traced bool) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
	}
	line.Correct = line.Failed == 0
	if len(results) == 1 {
		defs := endToEnd
		if traced {
			defs = perLayer()
		}
		for _, d := range defs {
			m := results[0].Metrics[d.Name]
			line.Metrics[d.Name] = value{Value: m.Median, Unit: d.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vrlbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// result is one workload's run.
type result struct {
	Workload  string                  `json:"workload"`
	Seed      int64                   `json:"seed"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Errors    []string                `json:"errors,omitempty"`
	Metrics   map[string]metricResult `json:"metrics"`

	traced []childOut // the traced iterations, spans included
}

type resultsFile struct {
	Seed    int64     `json:"seed"`
	Results []*result `json:"results"`
}

// minIters is the fewest untraced (and, in a traced run, traced)
// iterations a run makes, so quartiles exist even when one iteration
// outlasts -seconds. Smoke runs make one of each.
func (o options) minIters() int {
	if o.smoke {
		return 1
	}
	return 3
}

// setupOnlyPerIter is how many set-up-only children follow each untraced
// iteration. Set-up takes milliseconds, mostly process start, and varies a
// lot from one child to the next; these extra samples steady its median at
// almost no cost in time.
func (o options) setupOnlyPerIter() int {
	if o.smoke {
		return 1
	}
	return 4
}

// measure runs the verification child, then iterations one after another
// (a closed loop) until the next one would end past o.seconds. Every child
// is an attempt; one fails when it exits non-zero or its outputs differ
// from the first successful iteration's.
func measure(w workload, o options) *result {
	r := &result{Workload: w.name, Seed: o.seed}
	fail := func(err error) {
		r.Failed++
		r.Errors = append(r.Errors, err.Error())
	}
	if w.verify != nil {
		r.Attempted++
		if c := spawn(o, w, 0, "-verify"); c.err != nil {
			fail(fmt.Errorf("verification: %w", c.err))
		}
	}

	var plain, traced []childOut
	var setup, rss []float64
	digest := ""
	start := time.Now()
	var longest time.Duration
	for i := 1; ; i++ {
		tr := o.trace && i%2 == 0
		mode := ""
		if tr {
			mode = "-trace"
		}
		t0 := time.Now()
		r.Attempted++
		c := spawn(o, w, i, mode)
		longest = max(longest, time.Since(t0))
		switch {
		case c.err != nil:
			fail(c.err)
		case digest != "" && c.out.Digest != digest:
			fail(fmt.Errorf("iteration %d: outputs differ from the first iteration's", i))
		default:
			digest = c.out.Digest
			if tr {
				traced = append(traced, c.out)
			} else {
				plain = append(plain, c.out)
				setup = append(setup, c.out.SetupS)
				rss = append(rss, c.rssMiB)
			}
		}
		for k := 0; !tr && k < o.setupOnlyPerIter(); k++ {
			r.Attempted++
			if c := spawn(o, w, i, "-setup-only"); c.err != nil {
				fail(fmt.Errorf("set-up-only child: %w", c.err))
			} else {
				setup = append(setup, c.out.SetupS)
			}
		}
		n := len(plain)
		if o.trace {
			n = min(n, len(traced))
		}
		if n >= o.minIters() && time.Since(start)+longest > time.Duration(o.seconds*float64(time.Second)) {
			break
		}
		if r.Failed > 3*o.minIters() { // children keep failing: stop the run
			break
		}
	}
	r.Metrics = endToEndMetrics(plain, setup, rss)
	if o.trace {
		for k, v := range perLayerMetrics(traced, r.Metrics["run_s"].Median) {
			r.Metrics[k] = v
		}
		r.traced = traced
	}
	return r
}

func (r *result) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "workload %s, seed %d: %d attempted, %d failed\n", r.Workload, r.Seed, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAIL %s\n", e)
	}
	fmt.Fprintf(w, "  %-28s %-6s %12s %12s %12s %4s\n", "metric", "unit", "median", "q1", "q3", "n")
	names := make([]string, 0, len(r.Metrics))
	for _, d := range endToEnd {
		names = append(names, d.Name)
	}
	if traced {
		for _, d := range perLayer() {
			names = append(names, d.Name)
		}
	}
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-28s %-6s %12.6g %12.6g %12.6g %4d\n", n, m.Unit, m.Median, m.Q1, m.Q3, m.N)
	}
	if rate := r.Metrics["sim.rate"].Median; traced && rate > 0 && strings.HasPrefix(r.Workload, "device-") {
		const yearS = 31557600
		fmt.Fprintf(w, "  one simulated device-year at this rate: %.2f host hours\n", yearS/rate/3600)
	}
	if traced {
		layerTable(w, r.traced)
		fmt.Fprintf(w, "  tracing overhead: %+.4f s on run_s\n", r.Metrics["traced.overhead_s"].Median)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
