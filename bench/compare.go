package main

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// verdict compares one metric's head run against its base run. A side whose
// quartile spread exceeds the bound cannot resolve a change of that size.
func verdict(base, head summary, better string, bound float64) string {
	if base.N == 0 || head.N == 0 {
		return "unresolved"
	}
	if base.spread() > bound || head.spread() > bound {
		return "unresolved"
	}
	change := (head.Median - base.Median) / base.Median
	if better == "higher" {
		change = -change
	}
	switch {
	case change > bound:
		return "worse"
	case change < -bound:
		return "better"
	}
	return "within bound"
}

// compareMain prints one verdict per (workload, end-to-end metric) and
// returns 1 when any is worse. Each side is one results file or a
// comma-separated list of them, one per run. With several runs, a side's
// median and spread are those of its per-run medians (the run-to-run
// spread), and when both sides hold as many runs, paired in list order,
// the pairs the head wins are counted.
func compareMain(w io.Writer, specPath, baseList, headList string) int {
	var sp spec
	err := readJSON(specPath, &sp)
	var base, head map[string][]*result
	if err == nil {
		base, err = loadRuns(baseList)
	}
	if err == nil {
		head, err = loadRuns(headList)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "vrlbench: %v\n", err)
		return 2
	}
	worse := false
	fmt.Fprintf(w, "%-14s %-12s %12s %12s %8s  %s\n", "workload", "metric", "base", "head", "change", "verdict")
	for _, wl := range sp.Workloads {
		b, h := base[wl.Name], head[wl.Name]
		if len(b) == 0 || len(h) == 0 {
			fmt.Fprintf(w, "%-14s not in both sides\n", wl.Name)
			continue
		}
		for _, m := range sp.EndToEnd {
			bs, hs := sideSummary(b, m.Name), sideSummary(h, m.Name)
			v := verdict(bs, hs, m.Better, m.Bound)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-14s %-12s %12.6g %12.6g %+7.1f%%  %s (bound %.0f%%)", wl.Name, m.Name,
				bs.Median, hs.Median, 100*ratio(hs.Median-bs.Median, bs.Median), v, 100*m.Bound)
			if len(b) == len(h) && len(b) > 1 {
				wins := 0
				for i := range b {
					d := h[i].Metrics[m.Name].Median - b[i].Metrics[m.Name].Median
					if (m.Better == "lower" && d < 0) || (m.Better == "higher" && d > 0) {
						wins++
					}
				}
				fmt.Fprintf(w, ", head wins %d of %d pairs", wins, len(b))
			}
			fmt.Fprintln(w)
		}
	}
	if worse {
		return 1
	}
	return 0
}

// loadRuns reads a comma-separated list of results files and groups their
// runs by workload, in list order.
func loadRuns(list string) (map[string][]*result, error) {
	runs := map[string][]*result{}
	for _, path := range strings.Split(list, ",") {
		var f resultsFile
		if err := readJSON(path, &f); err != nil {
			return nil, err
		}
		for _, r := range f.Results {
			runs[r.Workload] = append(runs[r.Workload], r)
		}
	}
	return runs, nil
}

// sideSummary is a single run's own summary of metric, or the summary of
// the per-run medians of several runs.
func sideSummary(runs []*result, metric string) summary {
	if len(runs) == 1 {
		return runs[0].Metrics[metric].summary
	}
	var meds []float64
	for _, r := range runs {
		meds = append(meds, r.Metrics[metric].Median)
	}
	return summarize(meds)
}
