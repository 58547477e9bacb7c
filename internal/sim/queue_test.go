package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestHeapPopOrder is the queue-level property of the scalar reference:
// against random workloads of periodic refresh-style events - periods
// spanning four orders of magnitude, ties in time, and interleaved
// push/pop - the heap must emit exactly the (time, row) minimum of its
// contents at every pop, checked against an independent linear scan.
func TestHeapPopOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(200)
		var q eventQueue
		var live []event // independent copy of the queue's contents
		periods := make([]int64, rows)
		for r := 0; r < rows; r++ {
			// Power-of-two periods and coarse phases make rows share
			// timestamps, so the row tie-break is exercised throughout.
			periods[r] = 6250 << rng.Intn(17)
			e := event{T: int64(math.Floor(staggerFrac(r)*8)) * periods[r] / 8, Row: r}
			q.push(e)
			live = append(live, e)
		}
		horizon := int64(560_000_000)
		for q.size() > 0 {
			if q.size() != len(live) {
				return false
			}
			min := 0
			for i := range live {
				if eventLess(live[i], live[min]) {
					min = i
				}
			}
			want := live[min]
			live = append(live[:min], live[min+1:]...)
			if q.peekTime() != want.T {
				return false
			}
			if got := q.pop(); got != want {
				return false
			}
			if next := want.T + periods[want.Row]; next < horizon {
				ne := event{T: next, Row: want.Row}
				q.push(ne)
				live = append(live, ne)
			}
		}
		return len(live) == 0 && q.peekTime() == never
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapTieOrder pins the tie-break: events sharing one timestamp pop in
// row order.
func TestHeapTieOrder(t *testing.T) {
	var q eventQueue
	for _, r := range []int{5, 1, 9, 3, 7} {
		q.push(event{T: 100_000_000, Row: r})
	}
	for _, want := range []int{1, 3, 5, 7, 9} {
		if e := q.pop(); e.Row != want || e.T != 100_000_000 {
			t.Fatalf("tie pop %+v, want row %d", e, want)
		}
	}
}

// TestHeapSteadyStateZeroAllocs is the per-event allocation gate of the
// scalar reference: once the heap holds one event per row, a pop+push cycle
// of a realistic periodic workload must not allocate at all.
func TestHeapSteadyStateZeroAllocs(t *testing.T) {
	const rows = 2048
	var q eventQueue
	periods := make([]int64, rows)
	for r := 0; r < rows; r++ {
		periods[r] = 51_200_000 * int64(1+r%8)
		q.push(event{T: int64(staggerFrac(r) * float64(periods[r])), Row: r})
	}
	cycle := func(n int) {
		for i := 0; i < n; i++ {
			e := q.pop()
			q.push(event{T: e.T + periods[e.Row], Row: e.Row})
		}
	}
	cycle(rows)
	allocs := testing.AllocsPerRun(5, func() { cycle(rows) })
	if allocs != 0 {
		t.Fatalf("steady-state heap pop+push allocates %v per %d events, want 0", allocs, rows)
	}
}
