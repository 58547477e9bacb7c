package trace

import (
	"bytes"
	"cmp"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// FuzzReader: arbitrary text must never panic the parser; every successfully
// parsed record must validate and be time-ordered.
func FuzzReader(f *testing.F) {
	f.Add("0.1 R 1\n0.2 W 2\n")
	f.Add("# comment\n\n0.0 R 0\n")
	f.Add("garbage")
	f.Add("0.1 R 1\n0.05 R 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		recs, err := ReadAll(strings.NewReader(input))
		if err != nil {
			return
		}
		last := -1.0
		for _, r := range recs {
			if r.Validate() != nil {
				t.Fatalf("parsed invalid record %+v", r)
			}
			if r.Time < last {
				t.Fatal("parsed out-of-order records without error")
			}
			last = r.Time
		}
	})
}

// FuzzBinaryReader: arbitrary bytes must never panic; valid parses must
// yield valid records.
func FuzzBinaryReader(f *testing.F) {
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	_ = bw.Write(Record{Time: 0.1, Op: Read, Row: 1})
	_ = bw.Write(Record{Time: 0.2, Op: Write, Row: 2})
	_ = bw.Flush()
	f.Add(buf.Bytes())
	f.Add([]byte("VRLT\x01"))
	f.Add([]byte("nope"))
	f.Fuzz(func(t *testing.T, input []byte) {
		br := NewBinaryReader(bytes.NewReader(input))
		for i := 0; i < 1000; i++ {
			r, err := br.Next()
			if err != nil {
				return
			}
			if r.Validate() != nil {
				t.Fatalf("binary reader produced invalid record %+v", r)
			}
		}
	})
}

// generateRef is Generate with one global sort in place of the per-window
// sort and merge: the same random draws in the same order, sorted by
// slices.SortFunc. It is the reference FuzzGenerate holds Generate to.
func generateRef(b BenchmarkSpec, rows int, duration float64, seed int64) ([]Record, error) {
	g, err := b.newGenerator(rows, duration, seed)
	if err != nil {
		return nil, err
	}
	var recs []Record
	for w := 0; w < g.windows; w++ {
		t0 := float64(w) * window
		recs = g.appendSweep(recs, t0)
		for k := 0; k < g.hotPerWindow; k++ {
			recs = append(recs, g.hotRecord(t0))
		}
	}
	slices.SortFunc(recs, byTime)
	return clampTo(recs, duration), nil
}

// FuzzGenerate: Generate must return generateRef's records, record for
// record. Records that share a time may come out in either order (the
// reference's sort is unstable), so such runs are compared as sets.
func FuzzGenerate(f *testing.F) {
	for _, b := range PARSEC()[:3] {
		f.Add(b.FootprintFrac, b.SweepFrac, b.HotRows, b.HotAccessesPerWindow, b.ZipfS, b.WriteFrac, 2048, 0.2, int64(42))
	}
	f.Add(1.0, 0.0, 64, 500, 1.5, 0.5, 100, 0.064, int64(1))
	f.Add(0.5, 1.0, 0, 0, 1.0, 0.0, 4096, 0.3, int64(7))
	f.Add(0.01, 0.5, 8, 2000, 0.5, 1.0, 7, 0.5, int64(-3))
	f.Fuzz(func(t *testing.T, fp, sweep float64, hotRows, hits int, zipfS, wf float64, rows int, duration float64, seed int64) {
		b := BenchmarkSpec{
			Name: "fuzz", FootprintFrac: fp, SweepFrac: sweep,
			HotRows: hotRows % 4096, HotAccessesPerWindow: hits % 4096, ZipfS: zipfS, WriteFrac: wf,
		}
		rows %= 4096
		duration = math.Mod(duration, 0.5) // keeps NaN and Inf as NaN
		got, err := b.Generate(rows, duration, seed)
		want, refErr := generateRef(b, rows, duration, seed)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Generate error %v, reference error %v", err, refErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%d records, reference %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Time != want[i].Time {
				t.Fatalf("record %d at %v, reference at %v", i, got[i].Time, want[i].Time)
			}
		}
		byAll := func(a, b Record) int {
			return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.Row, b.Row), cmp.Compare(a.Op, b.Op))
		}
		slices.SortFunc(got, byAll)
		slices.SortFunc(want, byAll)
		if !slices.Equal(got, want) {
			t.Fatal("records differ from the reference's at equal times")
		}
	})
}

// TestSortWindowMerge tests the per-window sort and merge on their own:
// Generate's final order check would otherwise hide a helper that leaves
// records out of order behind the global-sort fallback.
func TestSortWindowMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range []int{0, 1, 1 << 20} {
		t0 := float64(w) * window
		for _, n := range []int{1, 2, 3, 17, 1000} {
			hot := make([]Record, n)
			for k := range hot {
				hot[k] = Record{Time: t0 + window*rng.Float64(), Row: k}
			}
			hot[0].Time = t0
			hot[n-1].Time = t0 + window // rounded onto the window's end
			sorted := make([]Record, n)
			sortWindow(sorted, hot, make([]int, n+1), t0)
			if !slices.IsSortedFunc(sorted, byTime) {
				t.Fatalf("window %d, %d records: sortWindow left them out of order", w, n)
			}
			want := slices.Clone(hot)
			slices.SortFunc(want, byTime)
			if !slices.Equal(sorted, want) {
				t.Fatalf("window %d, %d records: sortWindow lost or duplicated records", w, n)
			}

			prior := Record{Time: t0 + window, Row: -1} // a record before the window's start index
			recs := make([]Record, 0, 1+n+n)
			recs = append(recs, prior)
			for k := 0; k < n; k++ {
				recs = append(recs, Record{Time: t0 + window*(float64(k)+0.5)/float64(n+1), Row: n + k})
			}
			want = append(slices.Clone(recs[1:]), sorted...)
			slices.SortFunc(want, byTime)
			recs = mergeBehind(recs, 1, sorted)
			if recs[0] != prior || !slices.Equal(recs[1:], want) {
				t.Fatalf("window %d, %d records: mergeBehind did not merge the window in order", w, n)
			}
		}
	}
}
