package fleet

import (
	"math"
	"math/rand"
	"testing"
	"vrldram/internal/dram"

	"vrldram/internal/core"
	"vrldram/internal/sim"
)

// fakeStats synthesizes deterministic per-device statistics without running
// a simulator; index-dependent so distinct devices are distinguishable.
func fakeStats(i int) sim.Stats {
	return sim.Stats{
		Duration:         0.05,
		FullRefreshes:    int64(10 + i),
		PartialRefreshes: int64(i % 4),
		BusyCycles:       int64(1000 * (i + 1)),
		ChargeRestored:   chargeOf(0.125 * float64(i)),
		Violations:       i % 3,
		FaultsInjected:   int64(i % 2),
		Guard: core.GuardStats{
			Alarms:       int64(i % 5),
			Demotions:    int64(i % 3),
			Promotions:   int64(i % 2),
			Escalations:  int64(i % 7),
			BreakerTrips: int64(i % 2),
		},
		Scrub: core.ScrubStats{
			Corrected:     int64(i % 6),
			Uncorrectable: int64(i % 2),
			Reprofiles:    int64(i % 4),
			RowsRemapped:  int64(i % 3),
			HardFails:     int64(i % 2),
			SLOMisses:     int64(i % 9),
			SparesLeft:    16 - i%3,
		},
	}
}

// fakeResult builds a valid ShardResult from fakeStats - the engine tests'
// stand-in for a real simulation, cheap enough to run thousands of times.
func fakeResult(ss ShardSpec) ShardResult {
	spec := ss.Spec.WithDefaults()
	sum := NewSummary()
	for i := ss.Start; i < ss.Start+ss.Count; i++ {
		sum.AddDevice(spec.Device(i), fakeStats(i), spec.TCK())
	}
	return ShardResult{Shard: ss.Index, Start: ss.Start, Count: ss.Count, Sum: sum}
}

func TestHistAddAndQuantile(t *testing.T) {
	h := NewHist(0, 10, 10)
	for _, v := range []float64{-1, 0, 0.5, 5, 9.999, 10, 42, math.NaN()} {
		h.Add(v)
	}
	if h.Under != 1 {
		t.Fatalf("Under = %d, want 1", h.Under)
	}
	if h.Over != 3 { // 10, 42, NaN
		t.Fatalf("Over = %d, want 3", h.Over)
	}
	if h.Total() != 8 {
		t.Fatalf("Total = %d, want 8", h.Total())
	}
	if q := h.Quantile(1); q != 10 {
		t.Fatalf("Quantile(1) = %g, want Hi", q)
	}
	// Rank 4 of 8: under(-1), then 0 and 0.5 fill ranks 2-3, so rank 4 is
	// the sample 5 - bin [5,6), upper edge 6.
	if q := h.Quantile(0.5); q != 6 {
		t.Fatalf("Quantile(0.5) = %g, want 6", q)
	}
	if !math.IsNaN(NewHist(0, 1, 4).Quantile(0.5)) {
		t.Fatal("empty histogram quantile must be NaN")
	}
}

func TestHistMergeShapeMismatch(t *testing.T) {
	if err := NewHist(0, 10, 10).Merge(NewHist(0, 10, 20)); err == nil {
		t.Fatal("merging mismatched binnings must fail")
	}
	if err := NewHist(0, 10, 10).Merge(nil); err != nil {
		t.Fatalf("nil merge must be a no-op, got %v", err)
	}
}

// TestSummaryMergeOrderIndependence is the property the whole aggregation
// design exists for: merging per-shard summaries in any order - and any
// grouping - produces byte-identical encodings.
func TestSummaryMergeOrderIndependence(t *testing.T) {
	spec := Spec{Devices: 100, Seed: 3, Scheduler: "vrl", Duration: 0.05, Rows: 128, Cols: 4, ShardSize: 7, TempSwingC: 15, WeakFrac: 0.3}
	shards := spec.Shards()
	results := make([]*Summary, len(shards))
	for i, ss := range shards {
		results[i] = fakeResult(ss).Sum
	}

	merge := func(order []int) []byte {
		total := NewSummary()
		for _, i := range order {
			if err := total.Merge(results[i]); err != nil {
				t.Fatal(err)
			}
		}
		return total.Encode()
	}

	order := make([]int, len(shards))
	for i := range order {
		order[i] = i
	}
	want := merge(order)

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		if got := merge(order); string(got) != string(want) {
			t.Fatalf("trial %d: shuffled merge order changed the encoded summary", trial)
		}
	}

	// Grouped merge (merge halves, then merge the halves) must also agree.
	left, right := NewSummary(), NewSummary()
	for i, r := range results {
		side := left
		if i%2 == 1 {
			side = right
		}
		if err := side.Merge(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := left.Merge(right); err != nil {
		t.Fatal(err)
	}
	if string(left.Encode()) != string(want) {
		t.Fatal("grouped merge changed the encoded summary")
	}
}

func TestSummaryCodecRoundTrip(t *testing.T) {
	spec := testFleetSpec()
	sum := fakeResult(spec.Shards()[0]).Sum
	blob := sum.Encode()
	got, err := DecodeSummary(blob)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Encode()) != string(blob) {
		t.Fatal("summary round trip not byte-identical")
	}
	if _, err := DecodeSummary(blob[:len(blob)-3]); err == nil {
		t.Fatal("truncated summary must not decode")
	}
	flip := append([]byte(nil), blob...)
	flip[1] ^= 0xff // corrupt the tag
	if _, err := DecodeSummary(flip); err == nil {
		t.Fatal("summary with wrong tag must not decode")
	}
}

// chargeOf is a ChargeSum holding x.
func chargeOf(x float64) dram.ChargeSum {
	var s dram.ChargeSum
	s.Add(x)
	return s
}
