package memctrl

import (
	"strings"
	"testing"

	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/ecc"
	"vrldram/internal/rank"
	"vrldram/internal/retention"
	"vrldram/internal/trace"
)

const (
	mbBanks = 4
	mbRows  = 1024
)

func multiSetup(t *testing.T, mkKind string) ([]*dram.Bank, []core.Scheduler) {
	t.Helper()
	rm, err := core.PaperRestoreModel(device.Default90nm(), device.PaperBank)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(p *retention.BankProfile) (core.Scheduler, error) {
		switch mkKind {
		case "vrl":
			return core.NewVRL(p, core.Config{Restore: rm})
		default:
			return core.NewRAIDR(p, core.Config{Restore: rm})
		}
	}
	banks, scheds, err := rank.NewRank(mbBanks, retention.DefaultCellDistribution(), mbRows, 32, 17, mk)
	if err != nil {
		t.Fatal(err)
	}
	return banks, scheds
}

func multiOpts(g RefreshGranularity) MultiOptions {
	return MultiOptions{
		Timing:      DefaultTiming(),
		TCK:         device.Default90nm().TCK,
		Duration:    0.256,
		Granularity: g,
	}
}

func benchTraceReqs(t *testing.T) []Request {
	t.Helper()
	spec, err := trace.FindBenchmark("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := spec.Generate(mbBanks*mbRows, 0.256, 5)
	if err != nil {
		t.Fatal(err)
	}
	return MultiRequestsFromTrace(recs, device.Default90nm().TCK, mbBanks)
}

func TestMultiRequestsFromTrace(t *testing.T) {
	recs := []trace.Record{
		{Time: 1e-6, Op: trace.Read, Row: 7},
		{Time: 2e-6, Op: trace.Write, Row: 8},
	}
	reqs := MultiRequestsFromTrace(recs, 1e-9, 4)
	if reqs[0].Bank != 3 || reqs[0].Row != 1 {
		t.Fatalf("row 7 should map to bank 3 row 1: %+v", reqs[0])
	}
	if reqs[1].Bank != 0 || reqs[1].Row != 2 || !reqs[1].Write {
		t.Fatalf("row 8 mapping: %+v", reqs[1])
	}
}

func TestGranularityString(t *testing.T) {
	if PerBankRefresh.String() != "per-bank" || AllBankRefresh.String() != "all-bank" {
		t.Fatal("names wrong")
	}
	if RefreshGranularity(9).String() == "" {
		t.Fatal("unknown granularity must stringify")
	}
}

func TestMultiValidation(t *testing.T) {
	banks, scheds := multiSetup(t, "raidr")
	if _, _, err := RunMulti(nil, nil, nil, multiOpts(PerBankRefresh)); err == nil {
		t.Fatal("empty rank must be rejected")
	}
	if _, _, err := RunMulti(banks, scheds[:1], nil, multiOpts(PerBankRefresh)); err == nil {
		t.Fatal("mismatched lengths must be rejected")
	}
	bad := multiOpts(PerBankRefresh)
	bad.TCK = 0
	if _, _, err := RunMulti(banks, scheds, nil, bad); err == nil {
		t.Fatal("zero TCK must be rejected")
	}
	weird := multiOpts(RefreshGranularity(9))
	if _, _, err := RunMulti(banks, scheds, nil, weird); err == nil {
		t.Fatal("unknown granularity must be rejected")
	}
	oob := []Request{{Arrival: 5, Bank: 99, Row: 0}}
	if _, _, err := RunMulti(banks, scheds, oob, multiOpts(PerBankRefresh)); err == nil {
		t.Fatal("bad bank address must be rejected")
	}
	ooo := []Request{{Arrival: 5, Bank: 0, Row: 0}, {Arrival: 4, Bank: 0, Row: 0}}
	if _, _, err := RunMulti(banks, scheds, ooo, multiOpts(PerBankRefresh)); err == nil {
		t.Fatal("out-of-order arrivals must be rejected")
	}
}

func TestMultiBankParallelism(t *testing.T) {
	// Two simultaneous requests to different banks overlap; to the same bank
	// they serialize.
	banks, scheds := multiSetup(t, "raidr")
	parallel := []Request{
		{Arrival: 1000, Bank: 0, Row: 10},
		{Arrival: 1000, Bank: 1, Row: 10},
	}
	_, servedP, err := RunMulti(banks, scheds, parallel, multiOpts(PerBankRefresh))
	if err != nil {
		t.Fatal(err)
	}
	banks2, scheds2 := multiSetup(t, "raidr")
	serial := []Request{
		{Arrival: 1000, Bank: 0, Row: 10},
		{Arrival: 1000, Bank: 0, Row: 10},
	}
	_, servedS, err := RunMulti(banks2, scheds2, serial, multiOpts(PerBankRefresh))
	if err != nil {
		t.Fatal(err)
	}
	if servedP[1].Latency() >= servedS[1].Latency() {
		t.Fatalf("bank parallelism missing: parallel %d vs serial %d",
			servedP[1].Latency(), servedS[1].Latency())
	}
}

func TestMultiPerBankVsAllBank(t *testing.T) {
	reqs := benchTraceReqs(t)
	run := func(g RefreshGranularity) MultiStats {
		banks, scheds := multiSetup(t, "raidr")
		st, _, err := RunMulti(banks, scheds, reqs, multiOpts(g))
		if err != nil {
			t.Fatal(err)
		}
		if st.Violations != 0 {
			t.Fatalf("%s: violations %d", g, st.Violations)
		}
		return st
	}
	per := run(PerBankRefresh)
	all := run(AllBankRefresh)
	if per.Requests != all.Requests || per.Requests == 0 {
		t.Fatalf("request accounting: %d vs %d", per.Requests, all.Requests)
	}
	// All-bank refresh burns more aggregate bank-busy cycles and delivers
	// worse average latency.
	if all.RefreshBusyCycles <= per.RefreshBusyCycles {
		t.Fatalf("all-bank busy %d should exceed per-bank %d", all.RefreshBusyCycles, per.RefreshBusyCycles)
	}
	if all.AvgLatency < per.AvgLatency {
		t.Fatalf("all-bank latency %.2f should not beat per-bank %.2f", all.AvgLatency, per.AvgLatency)
	}
}

func TestMultiVRLBeatsRAIDR(t *testing.T) {
	reqs := benchTraceReqs(t)
	run := func(kind string) MultiStats {
		banks, scheds := multiSetup(t, kind)
		st, _, err := RunMulti(banks, scheds, reqs, multiOpts(PerBankRefresh))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	raidr := run("raidr")
	vrl := run("vrl")
	if vrl.RefreshBusyCycles >= raidr.RefreshBusyCycles {
		t.Fatalf("VRL busy %d !< RAIDR %d", vrl.RefreshBusyCycles, raidr.RefreshBusyCycles)
	}
	if vrl.Violations != 0 {
		t.Fatal("VRL violations")
	}
}

func TestMultiDeterminism(t *testing.T) {
	reqs := benchTraceReqs(t)
	run := func() MultiStats {
		banks, scheds := multiSetup(t, "vrl")
		st, _, err := RunMulti(banks, scheds, reqs, multiOpts(AllBankRefresh))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestSALPValidation(t *testing.T) {
	rm, err := core.PaperRestoreModel(device.Default90nm(), device.PaperBank)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := retention.NewSampledProfile(device.BankGeometry{Rows: 512, Cols: 32},
		retention.DefaultCellDistribution(), 3)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.NewRAIDR(prof, core.Config{Restore: rm})
	if err != nil {
		t.Fatal(err)
	}
	bank, err := dram.NewBank(prof, retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Timing: DefaultTiming(), TCK: device.Default90nm().TCK, Duration: 0.128}
	if _, _, err := RunSALP(bank, sched, nil, opts, 0); err == nil {
		t.Fatal("zero subarrays must be rejected")
	}
	if _, _, err := RunSALP(bank, sched, nil, opts, 10000); err == nil {
		t.Fatal("absurd subarray count must be rejected")
	}
	oob := []Request{{Arrival: 5, Row: 1 << 30}}
	if _, _, err := RunSALP(bank, sched, oob, opts, 4); err == nil {
		t.Fatal("out-of-range row must be rejected")
	}
}

// TestSALPRejectsUnsupportedOptions: RunSALP models none of Run's elastic,
// ECC or scrub extensions, so setting any of them is an error naming the
// field, not a run as if it were off.
func TestSALPRejectsUnsupportedOptions(t *testing.T) {
	f := setup(t)
	sched := f.sched(t, func() (core.Scheduler, error) { return core.NewVRL(f.profile, core.Config{Restore: f.rm}) })
	b := f.bank(t)
	cls := ecc.DefaultClassifier()
	for _, c := range []struct {
		field string
		set   func(*Options)
	}{
		{"ElasticSlack", func(o *Options) { o.ElasticSlack = 0.1 }},
		{"ECC", func(o *Options) { o.ECC = &cls }},
		{"DemoteOnCorrect", func(o *Options) { o.DemoteOnCorrect = true }},
		{"Scrub", func(o *Options) { o.Scrub = f.scrubber(t, b, sched) }},
	} {
		opts := f.opts
		c.set(&opts)
		_, _, err := RunSALP(b, sched, nil, opts, 4)
		if err == nil || !strings.Contains(err.Error(), "Options."+c.field) {
			t.Errorf("%s set: error %v, want one naming Options.%s", c.field, err, c.field)
		}
	}
}

func TestSALPHidesRefreshFromOtherSubarrays(t *testing.T) {
	// A request colliding with a refresh of ANOTHER subarray proceeds
	// unblocked; in the same subarray it waits.
	rm, err := core.PaperRestoreModel(device.Default90nm(), device.PaperBank)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := retention.NewSampledProfile(device.BankGeometry{Rows: 1024, Cols: 32},
		retention.DefaultCellDistribution(), 3)
	if err != nil {
		t.Fatal(err)
	}
	mkSched := func() core.Scheduler {
		s, err := core.NewRAIDR(prof, core.Config{Restore: rm})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	opts := Options{Timing: DefaultTiming(), TCK: device.Default90nm().TCK, Duration: 0.256}

	// Find the earliest refresh instant and its row.
	sched := mkSched()
	var firstCycle int64 = 1 << 62
	firstRow := -1
	for r := 0; r < prof.Geom.Rows; r++ {
		c := int64(staggerFrac(r) * sched.Period(r) / opts.TCK)
		if c > 0 && c < firstCycle {
			firstCycle, firstRow = c, r
		}
	}
	const nSub = 8
	rowsPerSub := prof.Geom.Rows / nSub
	sameSub := (firstRow / rowsPerSub) * rowsPerSub // another row in the refreshed subarray
	if sameSub == firstRow {
		sameSub++
	}
	otherSub := (firstRow/rowsPerSub + 1) % nSub * rowsPerSub

	run := func(row int) int64 {
		bank, err := dram.NewBank(prof, retention.ExpDecay{}, retention.PatternAllZeros)
		if err != nil {
			t.Fatal(err)
		}
		st, served, err := RunSALP(bank, mkSched(), []Request{{Arrival: firstCycle, Row: row}}, opts, nSub)
		if err != nil {
			t.Fatal(err)
		}
		if st.Violations != 0 {
			t.Fatalf("violations: %d", st.Violations)
		}
		return served[0].Latency()
	}
	same := run(sameSub)
	other := run(otherSub)
	if other >= same {
		t.Fatalf("request to another subarray should dodge the refresh: same-sub %d vs other-sub %d", same, other)
	}
}

func TestSALPOneSubarrayMatchesRefreshAccounting(t *testing.T) {
	// nSub = 1 must account the same refresh traffic as the plain engine.
	rm, err := core.PaperRestoreModel(device.Default90nm(), device.PaperBank)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := retention.NewSampledProfile(device.BankGeometry{Rows: 512, Cols: 32},
		retention.DefaultCellDistribution(), 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Timing: DefaultTiming(), TCK: device.Default90nm().TCK, Duration: 0.256}
	mk := func() core.Scheduler {
		s, err := core.NewVRL(prof, core.Config{Restore: rm})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	bankA, _ := dram.NewBank(prof, retention.ExpDecay{}, retention.PatternAllZeros)
	salp, _, err := RunSALP(bankA, mk(), nil, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	bankB, _ := dram.NewBank(prof, retention.ExpDecay{}, retention.PatternAllZeros)
	plain, _, err := Run(bankB, mk(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if salp.RefreshOps != plain.RefreshOps || salp.RefreshBusyCycles != plain.RefreshBusyCycles {
		t.Fatalf("refresh accounting diverges: %d/%d vs %d/%d",
			salp.RefreshOps, salp.RefreshBusyCycles, plain.RefreshOps, plain.RefreshBusyCycles)
	}
}
