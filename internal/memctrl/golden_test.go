package memctrl

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"testing"

	"vrldram/internal/core"
	"vrldram/internal/ecc"
	"vrldram/internal/trace"
)

// goldenRequests is a streamcluster trace plus two kinds of forced ties: a
// request at each of the first 64 rows' first refresh cycle (request vs
// refresh at one cycle) and a copy of every 5th trace request (request vs
// request). A saturating burst keeps requests pending across refreshes so
// elastic postponement engages.
func goldenRequests(t *testing.T, rows int, firstRefresh func(row int) int64, duration, tck float64) []Request {
	t.Helper()
	spec, err := trace.FindBenchmark("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := spec.Generate(rows, duration, 11)
	if err != nil {
		t.Fatal(err)
	}
	base := RequestsFromTrace(recs, tck)
	reqs := make([]Request, 0, len(base)+len(base)/5+2064)
	for i, r := range base {
		reqs = append(reqs, r)
		if i%5 == 0 {
			reqs = append(reqs, Request{Arrival: r.Arrival, Row: (r.Row + 1) % rows, Write: !r.Write})
		}
	}
	for r := 0; r < 64; r++ {
		reqs = append(reqs, Request{Arrival: firstRefresh(r), Row: (r * 31) % rows})
	}
	for i := 0; i < 2000; i++ {
		reqs = append(reqs, Request{Arrival: 400000 + int64(i), Row: (i / 3) % rows, Write: i%7 == 0})
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
	return reqs
}

func digestRequests(h hash.Hash, reqs []Request) {
	for _, r := range reqs {
		fmt.Fprintf(h, "%d %d %t %d %d %t\n", r.Arrival, r.Row, r.Write, r.Start, r.Finish, r.RowHit)
	}
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// TestControllerGolden pins the Stats and per-request outputs of the
// engine's three entry points, Run, RunSALP and RunMulti. The digests were
// taken when each entry point had its own event loop, with every event,
// requests included, in one container/heap min-heap on (cycle, kind, seq);
// the merged event queue must reproduce that pop order exactly. Elastic slack
// 0.1 and 0.3 agree here because no postponement reaches its deadline.
func TestControllerGolden(t *testing.T) {
	f := setup(t)
	vrl := func() core.Scheduler {
		return f.sched(t, func() (core.Scheduler, error) { return core.NewVRL(f.profile, core.Config{Restore: f.rm}) })
	}
	probe := vrl()
	reqs := goldenRequests(t, f.profile.Geom.Rows, func(r int) int64 {
		return int64(staggerFrac(r) * probe.Period(r) / f.opts.TCK)
	}, f.opts.Duration, f.opts.TCK)

	runCases := []struct {
		name  string
		slack float64
		scrub bool
		want  string
	}{
		{"run/elastic=0", 0, false, "037606abca6b4fa0c567631d09597b9522cf4a6fd15857c90e67b29d4fb3ff5e"},
		{"run/elastic=0.1", 0.1, false, "e6aba3f4be563045efb2cf9c698c8772518c3e6ae6e063088c15eded35f2958e"},
		{"run/elastic=0.3", 0.3, false, "e6aba3f4be563045efb2cf9c698c8772518c3e6ae6e063088c15eded35f2958e"},
		{"run/scrub+ecc", 0, true, "1caaba6012853edabfc4354c4ff8f60e64577241ed8a2967f8329e1f45459479"},
	}
	for _, c := range runCases {
		sched := vrl()
		b := f.bank(t)
		opts := f.opts
		opts.ElasticSlack = c.slack
		if c.scrub {
			opts.Scrub = f.scrubber(t, b, sched)
			cls := ecc.DefaultClassifier()
			opts.ECC = &cls
			opts.DemoteOnCorrect = true
		}
		st, out, err := Run(b, sched, reqs, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.slack > 0 && st.RefreshesPostponed == 0 {
			t.Fatalf("%s: no refresh was postponed; the case exercises nothing", c.name)
		}
		if c.scrub && st.Scrub.RowsPatrolled == 0 {
			t.Fatalf("%s: the patrol never ran", c.name)
		}
		h := sha256.New()
		fmt.Fprintf(h, "%+v\n", st)
		digestRequests(h, out)
		if got := hexSum(h); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}

	for _, c := range []struct {
		nSub int
		want string
	}{
		{1, "b036be1290c7810f522952a32f010809002dfa365538b517ff28a4be999785e5"},
		{3, "ff9c3b23902448114e97806a1fb94b8168c48a931ed052a08069af66ed805a59"},
		{16, "0047f83be8a0ada09a2072aa15a00075928bda25d67c0df5fc65ab1893be53ca"},
	} {
		st, out, err := RunSALP(f.bank(t), vrl(), reqs, f.opts, c.nSub)
		if err != nil {
			t.Fatalf("salp/%d: %v", c.nSub, err)
		}
		h := sha256.New()
		fmt.Fprintf(h, "%+v\n", st)
		digestRequests(h, out)
		if got := hexSum(h); got != c.want {
			t.Errorf("salp/nSub=%d: digest %s, want %s", c.nSub, got, c.want)
		}
	}

	mreqs := benchTraceReqs(t)
	for i := 0; i < len(mreqs); i += 4 {
		// Tie every 4th request with one to another bank at the same cycle.
		dup := mreqs[i]
		dup.Bank = (dup.Bank + 1) % mbBanks
		mreqs = append(mreqs, dup)
	}
	sort.SliceStable(mreqs, func(i, j int) bool { return mreqs[i].Arrival < mreqs[j].Arrival })
	for _, c := range []struct {
		g    RefreshGranularity
		want string
	}{
		{PerBankRefresh, "e3da7c0d693a15c477d5b1923b49a553137cc04fb6d5866c9e05e0cf4ac0ee7c"},
		{AllBankRefresh, "a901539365b95c6775e7f614a95e573fb797c32a0681b83df339af807c1195cb"},
	} {
		banks, scheds := multiSetup(t, "vrl")
		st, out, err := RunMulti(banks, scheds, mreqs, multiOpts(c.g))
		if err != nil {
			t.Fatalf("multi/%s: %v", c.g, err)
		}
		h := sha256.New()
		fmt.Fprintf(h, "%+v\n", st)
		for _, r := range out {
			fmt.Fprintf(h, "%d %d %d %t %d %d %t\n", r.Arrival, r.Bank, r.Row, r.Write, r.Start, r.Finish, r.RowHit)
		}
		if got := hexSum(h); got != c.want {
			t.Errorf("multi/%s: digest %s, want %s", c.g, got, c.want)
		}
	}
}
