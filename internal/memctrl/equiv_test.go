package memctrl

import (
	"fmt"
	"sort"
	"testing"

	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/retention"
)

// equivRows keeps one FuzzControllerEquivalence input's three runs short.
const equivRows = 128

// equivRequests decodes a request stream from fuzz bytes, three per request.
// The first byte picks how the arrival is placed: a small gap after the
// previous request (0 for a same-cycle tie), a row's first refresh cycle
// plus a few cycles, or a long gap. It also carries the write bit and
// whether to repeat the previous row (a likely row hit). The stream is then
// sorted by arrival, keeping ties in draw order.
func equivRequests(data []byte, firstRefresh func(row int) int64) []Request {
	const maxReqs = 400
	var reqs []Request
	var at int64 = 1
	row := 0
	for i := 0; i+2 < len(data) && len(reqs) < maxReqs; i += 3 {
		mode, a, b := data[i], int64(data[i+1]), int(data[i+2])
		switch mode % 4 {
		case 0:
			at += a % 32
		case 1:
			at = firstRefresh(int(a)%equivRows) + int64(mode>>6)
		case 2:
			at += a * 997
		}
		if mode&0x10 == 0 {
			row = b % equivRows
		}
		reqs = append(reqs, Request{Arrival: at, Row: row, Write: mode&0x8 != 0})
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
	return reqs
}

// FuzzControllerEquivalence: Run, RunSALP with one subarray and RunMulti
// with one bank under per-bank refresh all model one bank with one row
// buffer, so for any request stream they must serve every request at the
// same cycles with the same row-hit outcome, and agree on the aggregate
// latency, refresh and integrity counters.
func FuzzControllerEquivalence(f *testing.F) {
	p := device.Default90nm()
	rm, err := core.PaperRestoreModel(p, device.PaperBank)
	if err != nil {
		f.Fatal(err)
	}
	prof, err := retention.NewSampledProfile(device.BankGeometry{Rows: equivRows, Cols: 32},
		retention.DefaultCellDistribution(), 3)
	if err != nil {
		f.Fatal(err)
	}
	opts := Options{Timing: DefaultTiming(), TCK: p.TCK, Duration: 0.1}
	cfg := core.Config{Restore: rm}
	scheds := []func() (core.Scheduler, error){
		func() (core.Scheduler, error) { return core.NewJEDEC(0.064, rm) },
		func() (core.Scheduler, error) { return core.NewRAIDR(prof, cfg) },
		func() (core.Scheduler, error) { return core.NewVRL(prof, cfg) },
		func() (core.Scheduler, error) { return core.NewVRLAccess(prof, cfg) },
	}

	f.Add(uint8(2), []byte{1, 5, 9, 0, 3, 9, 0x10, 0, 0, 3, 0, 4, 1, 77, 2, 0x49, 77, 40, 0x18, 1, 0})
	f.Add(uint8(1), []byte{2, 200, 1, 0, 0, 2, 0, 0, 3, 0x10, 0, 0, 1, 12, 5, 0, 1, 5, 0x41, 12, 5})
	f.Add(uint8(0), []byte{0, 0, 0, 0, 0, 1, 0, 0, 2, 0x18, 0, 0, 0, 31, 3, 1, 99, 4, 3, 0, 4})
	f.Add(uint8(3), []byte{1, 9, 9, 0, 2, 9, 0x10, 0, 0, 1, 40, 3, 0, 5, 3, 0x49, 40, 40, 1, 9, 9})
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		mk := scheds[int(kind)%len(scheds)]
		newRun := func() (*dram.Bank, core.Scheduler) {
			t.Helper()
			s, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			b, err := dram.NewBank(prof, retention.ExpDecay{}, retention.PatternAllZeros)
			if err != nil {
				t.Fatal(err)
			}
			return b, s
		}
		_, probe := newRun()
		reqs := equivRequests(data, func(r int) int64 {
			return int64(staggerFrac(r) * probe.Period(r) / opts.TCK)
		})

		bank, sched := newRun()
		st, out, err := Run(bank, sched, reqs, opts)
		if err != nil {
			t.Fatal(err)
		}
		bank, sched = newRun()
		sst, sout, err := RunSALP(bank, sched, reqs, opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		bank, sched = newRun()
		mst, mout, err := RunMulti([]*dram.Bank{bank}, []core.Scheduler{sched}, reqs, MultiOptions{
			Timing: opts.Timing, TCK: opts.TCK, Duration: opts.Duration, Granularity: PerBankRefresh,
		})
		if err != nil {
			t.Fatal(err)
		}

		if len(sout) != len(out) || len(mout) != len(out) {
			t.Fatalf("served %d / %d / %d requests (Run / RunSALP / RunMulti)", len(out), len(sout), len(mout))
		}
		for i, r := range out {
			s, m := sout[i], mout[i]
			if s.Start != r.Start || s.Finish != r.Finish || s.RowHit != r.RowHit ||
				m.Start != r.Start || m.Finish != r.Finish || m.RowHit != r.RowHit {
				t.Fatalf("request %d %+v: Run %d-%d hit=%t, RunSALP %d-%d hit=%t, RunMulti %d-%d hit=%t",
					i, reqs[i], r.Start, r.Finish, r.RowHit, s.Start, s.Finish, s.RowHit, m.Start, m.Finish, m.RowHit)
			}
		}
		type agg struct {
			Requests, RowHits                int64
			AvgLatency                       float64
			P95Latency, MaxLatency           int64
			RefreshOps, RefreshBusy, Stalled int64
			Violations                       int
		}
		run := agg{st.Requests, st.RowHits, st.AvgLatency, st.P95Latency, st.MaxLatency,
			st.RefreshOps, st.RefreshBusyCycles, st.StalledByRefresh, st.Violations}
		salp := agg{sst.Requests, sst.RowHits, sst.AvgLatency, sst.P95Latency, sst.MaxLatency,
			sst.RefreshOps, sst.RefreshBusyCycles, sst.StalledByRefresh, sst.Violations}
		// MultiStats counts no stalls; compare it on the rest.
		multi := agg{mst.Requests, mst.RowHits, mst.AvgLatency, mst.P95Latency, mst.MaxLatency,
			mst.RefreshCommands, mst.RefreshBusyCycles, st.StalledByRefresh, mst.Violations}
		if salp != run || multi != run {
			t.Fatalf("aggregates differ:\nRun      %+v\nRunSALP  %+v\nRunMulti %+v", run, salp, multi)
		}
		if run.RefreshOps == 0 {
			t.Fatal("no refresh ran; the input exercises nothing")
		}
	})
}

// countingSched counts the activations a controller reports to its
// scheduler.
type countingSched struct {
	core.Scheduler
	accesses int
}

func (c *countingSched) OnAccess(row int, now float64) {
	c.accesses++
	c.Scheduler.OnAccess(row, now)
}

// activationsSeen checks that the scheduler heard of every row miss and that
// the bank model saw each one: an activation restores its row, so the row's
// last restore is no earlier than its last activation.
func activationsSeen(t *testing.T, name string, reqs []Request, banks []*dram.Bank, scheds []*countingSched, tck float64) {
	t.Helper()
	misses, reported := 0, 0
	for _, r := range reqs {
		if r.RowHit {
			continue
		}
		misses++
		if last := banks[r.Bank].State().LastT[r.Row]; last < dram.Ticks(float64(r.Start)*tck) {
			t.Fatalf("%s: bank %d row %d activated at cycle %d, but the bank model's last restore is tick %d",
				name, r.Bank, r.Row, r.Start, last)
		}
	}
	for _, s := range scheds {
		reported += s.accesses
	}
	if misses == 0 || reported != misses {
		t.Fatalf("%s: %d row misses, %d activations reported to the scheduler", name, misses, reported)
	}
}

// TestRowMissActivationsReported: every entry point tells the bank model and
// the scheduler about each row-miss activation, as VRL-Access needs. The
// requests come late in the run, so most rows see no refresh after their
// last activation.
func TestRowMissActivationsReported(t *testing.T) {
	p := device.Default90nm()
	rm, err := core.PaperRestoreModel(p, device.PaperBank)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := retention.NewSampledProfile(device.BankGeometry{Rows: equivRows, Cols: 32},
		retention.DefaultCellDistribution(), 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Timing: DefaultTiming(), TCK: p.TCK, Duration: 0.1}
	horizon := int64(opts.Duration / opts.TCK)
	const nBanks = 2
	var reqs []Request
	for i := 0; i < 300; i++ {
		reqs = append(reqs, Request{Arrival: horizon - 200000 + int64(i)*400, Bank: i % nBanks, Row: (i * 7) % equivRows, Write: i%5 == 0})
	}
	newRun := func(n int) ([]*dram.Bank, []*countingSched) {
		banks := make([]*dram.Bank, n)
		scheds := make([]*countingSched, n)
		for b := range banks {
			s, err := core.NewVRLAccess(prof, core.Config{Restore: rm})
			if err != nil {
				t.Fatal(err)
			}
			if banks[b], err = dram.NewBank(prof, retention.ExpDecay{}, retention.PatternAllZeros); err != nil {
				t.Fatal(err)
			}
			scheds[b] = &countingSched{Scheduler: s}
		}
		return banks, scheds
	}
	one := make([]Request, len(reqs))
	for i, r := range reqs {
		r.Bank = 0
		one[i] = r
	}

	banks, scheds := newRun(1)
	_, out, err := Run(banks[0], scheds[0], one, opts)
	if err != nil {
		t.Fatal(err)
	}
	activationsSeen(t, "Run", out, banks, scheds, opts.TCK)
	for _, nSub := range []int{1, 4} {
		banks, scheds := newRun(1)
		_, out, err := RunSALP(banks[0], scheds[0], one, opts, nSub)
		if err != nil {
			t.Fatal(err)
		}
		activationsSeen(t, fmt.Sprintf("RunSALP/%d", nSub), out, banks, scheds, opts.TCK)
	}
	for _, g := range []RefreshGranularity{PerBankRefresh, AllBankRefresh} {
		banks, scheds := newRun(nBanks)
		rs := make([]core.Scheduler, nBanks)
		for b := range scheds {
			rs[b] = scheds[b]
		}
		_, out, err := RunMulti(banks, rs, reqs, MultiOptions{Timing: opts.Timing, TCK: opts.TCK, Duration: opts.Duration, Granularity: g})
		if err != nil {
			t.Fatal(err)
		}
		activationsSeen(t, "RunMulti/"+g.String(), out, banks, scheds, opts.TCK)
	}
}
