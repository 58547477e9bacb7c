package memctrl

import (
	"math/rand"
	"testing"

	"vrldram/internal/core"
	"vrldram/internal/dram"
	"vrldram/internal/retention"
	"vrldram/internal/trace"
)

// TestEventQueueOrder drives the queue with random refresh, scrub and
// request events on a narrow cycle range, so all three kinds tie on cycles,
// with pushes interleaved with pops. Every pop must return the least
// pending event by (cycle, kind, seq), with requests numbered in arrival
// order, and peek must always agree with the next pop.
func TestEventQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		const horizon = 60
		q := newEventQueue(horizon, 4, 4)
		var ref []event
		var seq int64
		var lastArrival int64
		nreq := 0
		pops := 0
		check := func() {
			t.Helper()
			want, wantOK := event{}, len(ref) > 0
			best := -1
			for i, e := range ref {
				if best < 0 {
					best = i
					continue
				}
				b := ref[best]
				if e.cycle < b.cycle || e.cycle == b.cycle && (e.kind < b.kind || e.kind == b.kind && e.seq < b.seq) {
					best = i
				}
			}
			if wantOK {
				want = ref[best]
			}
			peeked, peekOK := q.peek()
			got, ok := q.pop()
			if ok != wantOK || got != want {
				t.Fatalf("round %d pop %d: got %+v (%v), want %+v (%v)", round, pops, got, ok, want, wantOK)
			}
			if peekOK != ok || peeked != got {
				t.Fatalf("round %d pop %d: peek %+v (%v) disagrees with pop %+v (%v)", round, pops, peeked, peekOK, got, ok)
			}
			if wantOK {
				ref = append(ref[:best], ref[best+1:]...)
			}
			pops++
		}
		for op := 0; op < 300; op++ {
			switch k := rng.Intn(4); {
			case k == 0:
				check()
			case k == 1:
				// Arrivals advance by 0 or 1: many request-request ties.
				lastArrival += int64(rng.Intn(2))
				if lastArrival >= horizon {
					continue
				}
				q.pushRequest(lastArrival)
				// Requests carry no seq; the reference keeps them in index
				// order and its scan picks the first of equal events.
				ref = append(ref, event{cycle: lastArrival, kind: evRequest, req: nreq})
				nreq++
			default:
				kind := evRefresh
				if k == 3 {
					kind = evScrub
				}
				ev := event{cycle: lastArrival + int64(rng.Intn(8)), kind: kind, row: rng.Intn(16), due: int64(rng.Intn(100))}
				q.push(ev)
				if ev.cycle < horizon {
					seq++
					ev.seq = seq
					ref = append(ref, ev)
				}
			}
		}
		for len(ref) > 0 {
			check()
		}
		check() // both sources empty: pop and peek report nothing
	}
}

// BenchmarkControllerRun times one controller run over the paper bank
// (8192x32) under VRL, serving a streamcluster-shaped trace; bank and
// scheduler construction is excluded.
func BenchmarkControllerRun(b *testing.B) {
	f := setup(b)
	spec, err := trace.FindBenchmark("streamcluster")
	if err != nil {
		b.Fatal(err)
	}
	recs, err := spec.Generate(f.profile.Geom.Rows, f.opts.Duration, 3)
	if err != nil {
		b.Fatal(err)
	}
	reqs := RequestsFromTrace(recs, f.params.TCK)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sched, err := core.NewVRL(f.profile, core.Config{Restore: f.rm})
		if err != nil {
			b.Fatal(err)
		}
		bank, err := dram.NewBank(f.profile, retention.ExpDecay{}, retention.PatternAllZeros)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, _, err := Run(bank, sched, reqs, f.opts); err != nil {
			b.Fatal(err)
		}
	}
}
