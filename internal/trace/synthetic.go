package trace

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// BenchmarkSpec parameterizes a synthetic workload generator. The parameters
// are chosen per benchmark to match the qualitative memory behaviour the
// PARSEC characterization literature reports (Bienia et al., PACT 2008):
// footprint relative to one DRAM bank, access intensity, and the split
// between a skewed hot set and streaming sweeps.
type BenchmarkSpec struct {
	Name string

	// FootprintFrac is the fraction of the bank's rows the workload ever
	// touches.
	FootprintFrac float64
	// SweepFrac is the fraction of the footprint touched by the streaming
	// component in each 64 ms window (it advances round-robin, so over time
	// the whole footprint is swept).
	SweepFrac float64
	// HotRows is the size of the hot set receiving the Zipf-skewed random
	// component.
	HotRows int
	// HotAccessesPerWindow is the number of skewed random accesses per 64 ms
	// window.
	HotAccessesPerWindow int
	// ZipfS is the Zipf skew of the hot component (1.0 = classic).
	ZipfS float64
	// WriteFrac is the fraction of accesses that are writes.
	WriteFrac float64
}

// Validate reports the first unusable parameter.
func (b BenchmarkSpec) Validate() error {
	switch {
	case b.Name == "":
		return fmt.Errorf("trace: benchmark needs a name")
	case b.FootprintFrac <= 0 || b.FootprintFrac > 1:
		return fmt.Errorf("trace: %s: FootprintFrac %g outside (0,1]", b.Name, b.FootprintFrac)
	case b.SweepFrac < 0 || b.SweepFrac > 1:
		return fmt.Errorf("trace: %s: SweepFrac %g outside [0,1]", b.Name, b.SweepFrac)
	case b.HotRows < 0:
		return fmt.Errorf("trace: %s: HotRows %d negative", b.Name, b.HotRows)
	case b.HotAccessesPerWindow < 0:
		return fmt.Errorf("trace: %s: HotAccessesPerWindow %d negative", b.Name, b.HotAccessesPerWindow)
	case b.ZipfS <= 0:
		return fmt.Errorf("trace: %s: ZipfS %g must be positive", b.Name, b.ZipfS)
	case b.WriteFrac < 0 || b.WriteFrac > 1:
		return fmt.Errorf("trace: %s: WriteFrac %g outside [0,1]", b.Name, b.WriteFrac)
	}
	return nil
}

// PARSEC returns the evaluation workload set: the 13 PARSEC-3.0 benchmarks
// plus the bgsave server workload, matching the x-axis of the paper's
// Figure 4. Parameters follow the PARSEC characterization: streamcluster,
// canneal and dedup are memory-intensive with large footprints; swaptions
// and blackscholes are compute-bound with small working sets; bgsave (a
// Redis background save) linearly scans nearly the whole resident set.
func PARSEC() []BenchmarkSpec {
	mk := func(name string, fp, sweep float64, hot int, hits int, zipf, wf float64) BenchmarkSpec {
		return BenchmarkSpec{
			Name: name, FootprintFrac: fp, SweepFrac: sweep,
			HotRows: hot, HotAccessesPerWindow: hits, ZipfS: zipf, WriteFrac: wf,
		}
	}
	return []BenchmarkSpec{
		mk("blackscholes", 0.45, 0.55, 256, 1500, 1.1, 0.25),
		mk("bodytrack", 0.55, 0.60, 512, 2500, 1.0, 0.30),
		mk("canneal", 0.95, 0.75, 2048, 6000, 0.9, 0.20),
		mk("dedup", 0.85, 0.80, 1024, 5000, 1.0, 0.45),
		mk("facesim", 0.70, 0.65, 768, 3500, 1.0, 0.35),
		mk("ferret", 0.65, 0.60, 768, 3000, 1.0, 0.25),
		mk("fluidanimate", 0.75, 0.70, 1024, 4000, 1.0, 0.40),
		mk("freqmine", 0.55, 0.50, 512, 2500, 1.1, 0.20),
		mk("raytrace", 0.50, 0.40, 512, 2000, 1.2, 0.10),
		mk("streamcluster", 0.98, 0.92, 1024, 8000, 0.8, 0.15),
		mk("swaptions", 0.12, 0.30, 128, 800, 1.3, 0.30),
		mk("vips", 0.65, 0.60, 768, 3000, 1.0, 0.35),
		mk("x264", 0.70, 0.65, 1024, 3500, 1.0, 0.40),
		mk("bgsave", 0.99, 0.96, 512, 9000, 0.7, 0.05),
	}
}

// FindBenchmark returns the spec with the given name.
func FindBenchmark(name string) (BenchmarkSpec, error) {
	for _, b := range PARSEC() {
		if b.Name == name {
			return b, nil
		}
	}
	return BenchmarkSpec{}, fmt.Errorf("trace: unknown benchmark %q", name)
}

// window is the 64 ms nominal refresh period that paces program phases.
const window = 0.064

// Generate produces the benchmark's access records over [0, duration) for a
// bank with the given number of rows, deterministically for a seed. Records
// come out time-sorted.
//
// Records are drawn one window at a time: the window's sweep records, which
// come out in time order, then its hot records at random times inside the
// window. Only the hot records need sorting, so each window sorts them by a
// counting pass plus one insertion pass and merges them behind its sweep
// records. The result is checked once for order and falls back to one global
// sort if a hot record rounded past the next window's start.
func (b BenchmarkSpec) Generate(rows int, duration float64, seed int64) ([]Record, error) {
	g, err := b.newGenerator(rows, duration, seed)
	if err != nil {
		return nil, err
	}
	recs := make([]Record, 0, g.records)
	sorted := make([]Record, g.hotPerWindow)
	count := make([]int, g.hotPerWindow+1)
	for w := 0; w < g.windows; w++ {
		t0 := float64(w) * window
		start := len(recs)
		recs = g.appendSweep(recs, t0)
		hot := len(recs)
		for k := 0; k < g.hotPerWindow; k++ {
			recs = append(recs, g.hotRecord(t0))
		}
		sortWindow(sorted, recs[hot:], count, t0)
		recs = mergeBehind(recs[:hot], start, sorted)
	}
	if !slices.IsSortedFunc(recs, byTime) {
		slices.SortFunc(recs, byTime)
	}
	return clampTo(recs, duration), nil
}

// generator holds one Generate call's set-up draws and its position in the
// footprint's sweep.
type generator struct {
	spec           BenchmarkSpec
	rng            *rand.Rand
	zipf           *rand.Zipf // nil when no hot record is drawn
	base           int        // the footprint's first row
	footprint      int
	hotSet         []int
	sweepPos       int
	sweepPerWindow int
	hotPerWindow   int
	windows        int
	records        int // windows * (sweepPerWindow + hotPerWindow)
}

// newGenerator checks the inputs, including that the window and record
// counts fit an int, and makes the set-up draws: the footprint's offset, then
// the hot set.
func (b BenchmarkSpec) newGenerator(rows int, duration float64, seed int64) (*generator, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if rows <= 0 || !(duration > 0) || math.IsInf(duration, 1) {
		return nil, fmt.Errorf("trace: rows %d and duration %g must be positive and finite", rows, duration)
	}
	windows := math.Ceil(duration / window)
	if !(windows < math.MaxInt) {
		return nil, fmt.Errorf("trace: duration %g s spans more windows than an int counts", duration)
	}
	g := &generator{spec: b, rng: rand.New(rand.NewSource(seed)), windows: int(windows)}

	g.footprint = int(math.Round(b.FootprintFrac * float64(rows)))
	if g.footprint < 1 {
		g.footprint = 1
	}
	hot := b.HotRows
	if hot > g.footprint {
		hot = g.footprint
	}
	// The footprint occupies a contiguous region at a random offset; the hot
	// set is a random subset of it. Real row allocation is scattered, but
	// refresh scheduling is insensitive to which rows are hot - only to how
	// many and how often.
	if rows > g.footprint {
		g.base = g.rng.Intn(rows - g.footprint)
	}
	g.hotSet = g.rng.Perm(g.footprint)[:hot]

	if hot > 0 && b.HotAccessesPerWindow > 0 {
		// rand.Zipf requires s > 1; clamp and fold milder skews into v.
		s := b.ZipfS
		v := 1.0
		if s <= 1 {
			v = 2 + (1-s)*8 // flatter distributions via larger v
			s = 1.01
		}
		g.zipf = rand.NewZipf(g.rng, s, v, uint64(hot-1))
		g.hotPerWindow = b.HotAccessesPerWindow
	}
	g.sweepPerWindow = int(math.Round(b.SweepFrac * float64(g.footprint)))

	perWindow := g.sweepPerWindow + g.hotPerWindow
	if perWindow < g.sweepPerWindow || perWindow > 0 && g.windows > math.MaxInt/perWindow {
		return nil, fmt.Errorf("trace: %s over %g s has more records than an int counts", b.Name, duration)
	}
	g.records = g.windows * perWindow
	return g, nil
}

// appendSweep appends the window's streaming component: the next
// sweepPerWindow rows of the footprint, round-robin, evenly spaced in time.
func (g *generator) appendSweep(recs []Record, t0 float64) []Record {
	for k := 0; k < g.sweepPerWindow; k++ {
		row := g.base + g.sweepPos
		g.sweepPos = (g.sweepPos + 1) % g.footprint
		t := t0 + window*float64(k)/float64(g.sweepPerWindow+1)
		recs = append(recs, Record{Time: t, Op: g.spec.op(g.rng), Row: row})
	}
	return recs
}

// hotRecord draws one record of the window's skewed hot component.
func (g *generator) hotRecord(t0 float64) Record {
	row := g.base + g.hotSet[int(g.zipf.Uint64())]
	t := t0 + window*g.rng.Float64()
	return Record{Time: t, Op: g.spec.op(g.rng), Row: row}
}

// sortWindow puts the window's hot records in time order into dst. A counting
// pass places each record in one of len(src) equal slices of the window;
// the slice index only grows with time (IEEE subtraction and scaling by a
// positive constant are monotone), so bucket order never contradicts time
// order and one insertion pass finishes the sort. count is scratch of
// len(src)+1.
func sortWindow(dst, src []Record, count []int, t0 float64) {
	n := len(src)
	if n == 0 {
		return
	}
	scale := float64(n) / window
	key := func(t float64) int {
		return min(int((t-t0)*scale), n-1) // a record may round onto the window's end
	}
	clear(count)
	for _, r := range src {
		count[key(r.Time)+1]++
	}
	for i := 1; i < n; i++ {
		count[i] += count[i-1]
	}
	for _, r := range src {
		k := key(r.Time)
		dst[count[k]] = r
		count[k]++
	}
	for i := 1; i < n; i++ {
		r := dst[i]
		j := i
		for j > 0 && dst[j-1].Time > r.Time {
			dst[j] = dst[j-1]
			j--
		}
		dst[j] = r
	}
}

// mergeBehind appends the time-sorted hot records to recs, merging them into
// the window's sweep records, the sorted run recs[start:]. It merges from the
// back, so each sweep record moves at most once and needs no buffer.
func mergeBehind(recs []Record, start int, hot []Record) []Record {
	i := len(recs) - 1
	recs = recs[:len(recs)+len(hot)]
	j := len(hot) - 1
	for w := len(recs) - 1; j >= 0; w-- {
		if i >= start && recs[i].Time > hot[j].Time {
			recs[w] = recs[i]
			i--
		} else {
			recs[w] = hot[j]
			j--
		}
	}
	return recs
}

func byTime(a, b Record) int { return cmp.Compare(a.Time, b.Time) }

// clampTo cuts time-sorted records at duration (the last window may overrun).
func clampTo(recs []Record, duration float64) []Record {
	cut := sort.Search(len(recs), func(i int) bool { return recs[i].Time >= duration })
	return recs[:cut]
}

func (b BenchmarkSpec) op(rng *rand.Rand) OpKind {
	if rng.Float64() < b.WriteFrac {
		return Write
	}
	return Read
}

// Stats summarizes a trace against a bank: the inputs Figure 4's VRL-Access
// result depends on.
type Stats struct {
	Records      int
	Reads        int
	Writes       int
	UniqueRows   int
	MeanCoverage float64 // mean fraction of bank rows touched per 64 ms window
}

// Analyze computes trace statistics for a bank of the given rows over the
// given duration.
func Analyze(recs []Record, rows int, duration float64) Stats {
	st := Stats{Records: len(recs)}
	seen := make(map[int]struct{})
	nWindows := int(math.Ceil(duration / window))
	if nWindows == 0 {
		nWindows = 1
	}
	perWindow := make([]map[int]struct{}, nWindows)
	for i := range perWindow {
		perWindow[i] = make(map[int]struct{})
	}
	for _, r := range recs {
		if r.Op == Write {
			st.Writes++
		} else {
			st.Reads++
		}
		seen[r.Row] = struct{}{}
		w := int(r.Time / window)
		if w >= nWindows {
			w = nWindows - 1
		}
		perWindow[w][r.Row] = struct{}{}
	}
	st.UniqueRows = len(seen)
	var cov float64
	for _, m := range perWindow {
		cov += float64(len(m)) / float64(rows)
	}
	st.MeanCoverage = cov / float64(nWindows)
	return st
}
