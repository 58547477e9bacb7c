package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"vrldram/internal/exp"
)

// metricDef declares one metric; BENCHMARK.json declares the same set.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are measured on untraced iterations. Simulated work per
// iteration is fixed per workload and seed, so run_s also stands for the
// simulated-seconds-per-host-second rate (reported per layer as sim.rate).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// spanLayers are the spans whose self time is reported, as a fraction of
// the traced iteration's wall time (spawn to the end of the timed phase).
// "setup" and "run" keep whatever no layer span covers.
func spanLayers() []string {
	l := []string{
		"setup", "proc.start", "retention.profile", "core.restore_model", "core.scheduler",
		"dram.bank", "run", "sim.run",
		"fleet.run", "fleet.shard", "fleet.device", "fleet.summary",
	}
	for _, e := range exp.Registry {
		l = append(l, "exp."+e.ID)
	}
	return l
}

// perLayer are measured on traced iterations (plus sim.rate and
// traced.overhead_s, which compare against the untraced ones). A layer a
// workload does not reach reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"traced.setup_s", "s", "lower"},
		{"traced.run_s", "s", "lower"},
		{"traced.overhead_s", "s", "lower"},
		{"traced.accounted", "ratio", "higher"},
	}
	for _, l := range spanLayers() {
		defs = append(defs, metricDef{l + ".self_frac", "ratio", "lower"})
	}
	return append(defs,
		metricDef{"sim.events", "count", "lower"},
		metricDef{"sim.events_per_s", "1/s", "higher"},
		metricDef{"sim.rate", "s/s", "higher"},
		metricDef{"sim.refresh_overhead_pct", "%", "lower"},
		metricDef{"sim.violations", "count", "lower"},
		metricDef{"fleet.shards", "count", "lower"},
		metricDef{"fleet.slot_util", "ratio", "higher"},
		metricDef{"fleet.devices_per_s", "1/s", "higher"},
		metricDef{"fleet.device_tail_ratio", "ratio", "lower"},
		metricDef{"fleet.setup_share", "ratio", "lower"},
	)
}

// metricResult is one metric's samples within a run and their summary.
type metricResult struct {
	Unit string `json:"unit"`
	summary
	Samples []float64 `json:"samples"`
}

func newMetric(unit string, xs []float64) metricResult {
	return metricResult{Unit: unit, summary: summarize(xs), Samples: xs}
}

// endToEndMetrics summarizes the untraced iterations; setup also holds the
// set-up-only children's samples.
func endToEndMetrics(plain []childOut, setup, rss []float64) map[string]metricResult {
	var run []float64
	for _, c := range plain {
		run = append(run, c.RunS)
	}
	return map[string]metricResult{
		"setup_s":     newMetric("s", setup),
		"run_s":       newMetric("s", run),
		"peak_rss_mb": newMetric("MiB", rss),
	}
}

// perLayerMetrics summarizes the traced iterations; plainRunS is the
// untraced run_s median.
func perLayerMetrics(traced []childOut, plainRunS float64) map[string]metricResult {
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	for _, c := range traced {
		self := selfTimes(c.Spans)
		var wall, run, simHost, slotS float64
		for _, s := range c.Spans {
			switch s.Name {
			case "run":
				wall, run = s.End, s.dur()
			case "sim.run", "fleet.device":
				simHost += s.dur()
			case "fleet.shard":
				slotS += s.dur()
			}
		}
		add("traced.setup_s", c.SetupS)
		add("traced.run_s", c.RunS)
		add("traced.accounted", 1-self["run"]/run)
		for _, l := range spanLayers() {
			add(l+".self_frac", self[l]/wall)
		}
		n := c.Counts
		events := n["sim.events"]
		add("sim.events", events)
		add("sim.events_per_s", ratio(events, simHost))
		add("sim.refresh_overhead_pct", 100*ratio(n["sim.busy_s"], n["sim.device_s"]))
		add("sim.device_s", n["sim.device_s"])
		add("fleet.slot_util", ratio(slotS, fleetSlots*c.RunS))
		for _, k := range []string{"sim.violations", "fleet.shards", "fleet.devices_per_s",
			"fleet.device_tail_ratio", "fleet.setup_share"} {
			add(k, n[k])
		}
	}
	out := map[string]metricResult{}
	for _, d := range perLayer() {
		out[d.Name] = newMetric(d.Unit, samples[d.Name])
	}
	out["traced.overhead_s"] = newMetric("s", []float64{median(samples["traced.run_s"]) - plainRunS})
	out["sim.rate"] = newMetric("s/s", []float64{ratio(median(samples["sim.device_s"]), plainRunS)})
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerTable prints each span's median self time and its fraction of the
// traced iteration, largest first.
func layerTable(w io.Writer, traced []childOut) {
	self := map[string][]float64{}
	var wall []float64
	for _, c := range traced {
		st := selfTimes(c.Spans)
		for _, s := range c.Spans {
			if s.Name == "run" {
				wall = append(wall, s.End)
			}
		}
		for name, v := range st {
			self[name] = append(self[name], v)
		}
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return median(self[names[i]]) > median(self[names[j]]) })
	fmt.Fprintf(w, "  %-28s %12s %8s\n", "layer (traced, self time)", "median", "of iter")
	for _, n := range names {
		m := median(self[n])
		fmt.Fprintf(w, "  %-28s %12s %7.2f%%\n", n, time.Duration(m*1e9).Round(time.Microsecond), 100*m/median(wall))
	}
}
