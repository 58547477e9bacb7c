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

// Generate produces the benchmark's access records over [0, duration) for a
// bank with the given number of rows, deterministically for a seed. Records
// come out time-sorted.
func (b BenchmarkSpec) Generate(rows int, duration float64, seed int64) ([]Record, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if rows <= 0 || duration <= 0 {
		return nil, fmt.Errorf("trace: rows %d and duration %g must be positive", rows, duration)
	}
	rng := rand.New(rand.NewSource(seed))
	const window = 0.064 // the nominal refresh period paces program phases

	footprint := int(math.Round(b.FootprintFrac * float64(rows)))
	if footprint < 1 {
		footprint = 1
	}
	hot := b.HotRows
	if hot > footprint {
		hot = footprint
	}
	// The footprint occupies a contiguous region at a random offset; the hot
	// set is a random subset of it. Real row allocation is scattered, but
	// refresh scheduling is insensitive to which rows are hot - only to how
	// many and how often.
	base := 0
	if rows > footprint {
		base = rng.Intn(rows - footprint)
	}
	hotSet := rng.Perm(footprint)[:hot]

	var zipf *rand.Zipf
	if hot > 0 && b.HotAccessesPerWindow > 0 {
		// rand.Zipf requires s > 1; clamp and fold milder skews into v.
		s := b.ZipfS
		v := 1.0
		if s <= 1 {
			v = 2 + (1-s)*8 // flatter distributions via larger v
			s = 1.01
		}
		zipf = rand.NewZipf(rng, s, v, uint64(hot-1))
	}

	sweepPerWindow := int(math.Round(b.SweepFrac * float64(footprint)))
	nWindows := int(math.Ceil(duration / window))
	var recs []Record
	sweepPos := 0
	for w := 0; w < nWindows; w++ {
		t0 := float64(w) * window
		// Streaming component: the next sweepPerWindow rows of the
		// footprint, round-robin.
		for k := 0; k < sweepPerWindow; k++ {
			row := base + sweepPos
			sweepPos = (sweepPos + 1) % footprint
			t := t0 + window*float64(k)/float64(sweepPerWindow+1)
			recs = append(recs, Record{Time: t, Op: b.op(rng), Row: row})
		}
		// Skewed hot component.
		for k := 0; k < b.HotAccessesPerWindow && zipf != nil; k++ {
			row := base + hotSet[int(zipf.Uint64())]
			t := t0 + window*rng.Float64()
			recs = append(recs, Record{Time: t, Op: b.op(rng), Row: row})
		}
	}
	slices.SortFunc(recs, func(a, b Record) int { return cmp.Compare(a.Time, b.Time) })
	// Clamp to the duration (the last window may overrun).
	cut := sort.Search(len(recs), func(i int) bool { return recs[i].Time >= duration })
	return recs[:cut], nil
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
	const window = 0.064
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
