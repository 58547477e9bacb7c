package sim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refSorted is the reference (time, row) ordering: a stable standard-library
// sort. The event keys are unique per queue (one pending event per row), but
// the sort kernels are still exercised on duplicate keys here to pin down
// that ties cannot reorder.
func refSorted(s []event) []event {
	out := append([]event(nil), s...)
	slices.SortStableFunc(out, func(a, b event) int {
		switch {
		case a.T < b.T:
			return -1
		case a.T > b.T:
			return 1
		}
		return a.Row - b.Row
	})
	return out
}

// TestRadixSortEvents drives the LSD radix sort from single events up to a
// few hundred, across negative and positive ticks spread over several
// bytes of the key, covering the sign flip,
// the skip-uniform-byte passes, and the insertion tie fix.
func TestRadixSortEvents(t *testing.T) {
	var scratch []event
	var keys []uint64
	for trial := 0; trial < 500; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 1 + rng.Intn(600)
		s := make([]event, n)
		for i := range s {
			s[i] = event{T: int64(rng.Intn(400)-40) << (8 * rng.Intn(6)), Row: rng.Intn(50)}
		}
		want := refSorted(s)
		got := append([]event(nil), s...)
		radixSortEvents(got, &scratch, &keys)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("radixSortEvents wrong at trial %d n=%d", trial, n)
		}
	}
}

// TestSortEvents drives the top-level entry point: already-sorted input
// (the resume shape) must come back untouched, anything else sorted, across
// the same input family.
func TestSortEvents(t *testing.T) {
	var scratch []event
	var keys []uint64
	for trial := 0; trial < 2000; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 9000))
		n := 1 + rng.Intn(500)
		s := make([]event, n)
		for i := range s {
			s[i] = event{T: int64(rng.Intn(100)) * 3_125_000, Row: rng.Intn(50)}
		}
		want := refSorted(s)
		if trial%2 == 0 {
			s = want
		}
		got := append([]event(nil), s...)
		sortEvents(got, &scratch, &keys)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sortEvents wrong at trial %d n=%d", trial, n)
		}
	}
}
