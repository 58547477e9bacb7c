package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as its own benchmark child, so the
// smoke test below drives the same child processes a real run does.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMedianAndQuartiles(t *testing.T) {
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		// Expected quartiles are statistics.quantiles(xs, n=4)[0] and [2].
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{7}, 7, 7, 7},
		{nil, 0, 0, 0},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); !near(m, c.med) || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("%v: median %g quartiles %g %g, want %g %g %g", c.xs, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n  int
		p  float64
		ok bool
	}{{19, 0, false}, {20, 50, true}, {99, 50, true}, {100, 90, true}, {512, 90, true}, {1000, 99, true}, {1024, 99, true}, {10000, 99.9, true}}
	for _, c := range cases {
		if p, ok := tailPercentile(c.n); p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, p, ok, c.p, c.ok)
		}
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 50); got != 3 {
		t.Errorf("p50 of 1..5 = %g, want 3", got)
	}
}

func TestSelfTimesCountsParallelChildrenOnce(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "fleet.shard", Start: 1, End: 6},
		{ID: 2, Parent: 0, Name: "fleet.shard", Start: 2, End: 8},
		{ID: 3, Parent: 1, Name: "fleet.device", Start: 1, End: 5},
	}
	self := selfTimes(spans)
	want := map[string]float64{"run": 3, "fleet.shard": 1 + 6, "fleet.device": 4}
	for name, w := range want {
		if !near(self[name], w) {
			t.Errorf("self[%s] = %g, want %g", name, self[name], w)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := summary{Median: 1, Q1: 0.99, Q3: 1.01, N: 10}
	at := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 10} }
	cases := []struct {
		head   summary
		better string
		want   string
	}{
		{at(1.05), "lower", "within bound"},
		{at(1.2), "lower", "worse"},
		{at(0.8), "lower", "better"},
		{at(0.8), "higher", "worse"},
		{summary{Median: 1, Q1: 0.8, Q3: 1.2, N: 10}, "lower", "unresolved"},
		{summary{}, "lower", "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(base, c.head, c.better, 0.1); got != c.want {
			t.Errorf("verdict(head %+v, %s) = %s, want %s", c.head, c.better, got, c.want)
		}
	}
}

func readSpec(t *testing.T) spec {
	t.Helper()
	var sp spec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestNamesAreValidAndUnique(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		names = append(names, d.Name)
	}
	for _, n := range names {
		if !valid.MatchString(n) {
			t.Errorf("name %q is not valid", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
}

func TestMetricsMatchDeclaration(t *testing.T) {
	sp := readSpec(t)
	var declE2E []metricDef
	for _, m := range sp.EndToEnd {
		declE2E = append(declE2E, m.metricDef)
	}
	same := func(what string, got, want []metricDef) {
		key := func(ds []metricDef) []string {
			var k []string
			for _, d := range ds {
				k = append(k, d.Name+" "+d.Unit+" "+d.Better)
			}
			sort.Strings(k)
			return k
		}
		if g, w := strings.Join(key(got), "\n"), strings.Join(key(want), "\n"); g != w {
			t.Errorf("%s emitted:\n%s\ndeclared in BENCHMARK.json:\n%s", what, g, w)
		}
	}
	same("end-to-end metrics", endToEnd, declE2E)
	same("per-layer metrics", perLayer(), sp.PerLayer)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := sp.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: declared %q (%q), benchmark has %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
	}
}

// runBench runs the benchmark's parent in-process and returns its last
// output line, parsed.
func runBench(t *testing.T, args ...string) (line struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}) {
	t.Helper()
	var out bytes.Buffer
	code := parentMain(append([]string{"-smoke", "-seconds", "0", "-workdir", t.TempDir()}, args...), &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	if !line.Correct || line.Failed != 0 || code != 0 {
		t.Fatalf("run not correct (exit %d):\n%s", code, out.String())
	}
	return line
}

func metricNames(defs []metricDef) []string {
	var n []string
	for _, d := range defs {
		n = append(n, d.Name)
	}
	sort.Strings(n)
	return n
}

// TestSmoke runs every workload at tiny sizes, traced and untraced, with
// all output checks, and checks that each result line carries exactly the
// declared metrics.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	results := filepath.Join(dir, "results.json")
	for _, w := range workloads {
		line := runBench(t, "-workload", w.name, "-trace", "1", "-o", results, "-spans", filepath.Join(dir, "spans.json"))
		got := make([]string, 0, len(line.Metrics))
		for k := range line.Metrics {
			got = append(got, k)
		}
		sort.Strings(got)
		if strings.Join(got, " ") != strings.Join(metricNames(perLayer()), " ") {
			t.Errorf("%s traced metrics = %v", w.name, got)
		}
		want := 3 // one untraced iteration, one set-up-only child, one traced iteration
		if w.verify != nil {
			want++
		}
		if line.Attempted != want {
			t.Errorf("%s: %d attempts, want %d", w.name, line.Attempted, want)
		}
	}
	line := runBench(t, "-workload", "device-quiet", "-trace", "0")
	for _, d := range endToEnd {
		if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit || m.Value <= 0 {
			t.Errorf("end-to-end %s = %+v, want a positive value in %s", d.Name, m, d.Unit)
		}
	}
	for _, side := range []string{results, results + "," + results} {
		var out bytes.Buffer
		if code := parentMain([]string{"-compare", "-spec", filepath.Join("..", "BENCHMARK.json"), side, side}, &out); code != 0 {
			t.Errorf("comparing %s with itself exits %d:\n%s", side, code, out.String())
		}
	}
}
