package vrldram_test

import (
	"testing"

	"vrldram"
)

func newSystem(t *testing.T) *vrldram.System {
	t.Helper()
	sys, err := vrldram.NewSystem(vrldram.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewSystemDefaults(t *testing.T) {
	sys := newSystem(t)
	partial, full := sys.RefreshLatencies()
	if partial != 11 || full != 19 {
		t.Fatalf("latencies %d/%d, want the paper's 11/19", partial, full)
	}
	counts, err := sys.BinCounts()
	if err != nil {
		t.Fatal(err)
	}
	if counts[0.064] != 68 || counts[0.128] != 101 || counts[0.192] != 145 || counts[0.256] != 7878 {
		t.Fatalf("default bank must reproduce Figure 3b, got %v", counts)
	}
}

func TestNewSystemOptionErrors(t *testing.T) {
	if _, err := vrldram.NewSystem(vrldram.Options{Rows: -1}); err == nil {
		t.Fatal("bad geometry must be rejected")
	}
	if _, err := vrldram.NewSystem(vrldram.Options{Decay: "nope"}); err == nil {
		t.Fatal("bad decay must be rejected")
	}
	if _, err := vrldram.NewSystem(vrldram.Options{Pattern: "nope"}); err == nil {
		t.Fatal("bad pattern must be rejected")
	}
	if _, err := vrldram.NewSystem(vrldram.Options{Guardband: 0.2}); err == nil {
		// Guardband is validated when the scheduler is built; Simulate must
		// surface it.
		sys, err := vrldram.NewSystem(vrldram.Options{Guardband: 0.2})
		if err == nil {
			if _, err = sys.Simulate(vrldram.SchedVRL, nil, 0.064); err == nil {
				t.Fatal("bad guardband must be rejected somewhere")
			}
		}
	}
}

func TestSimulateOrderingAcrossSchedulers(t *testing.T) {
	sys := newSystem(t)
	const duration = 0.768
	accesses, err := sys.GenerateTrace("streamcluster", duration)
	if err != nil {
		t.Fatal(err)
	}
	busy := map[vrldram.SchedulerKind]int64{}
	for _, kind := range vrldram.SchedulerKinds {
		st, err := sys.Simulate(kind, accesses, duration)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if st.Violations != 0 {
			t.Fatalf("%s: %d violations", kind, st.Violations)
		}
		if st.RefreshEnergy <= 0 {
			t.Fatalf("%s: energy %v", kind, st.RefreshEnergy)
		}
		busy[kind] = st.BusyCycles
	}
	if !(busy[vrldram.SchedJEDEC] > busy[vrldram.SchedRAIDR]) {
		t.Fatal("JEDEC must cost more than RAIDR")
	}
	if !(busy[vrldram.SchedRAIDR] > busy[vrldram.SchedVRL]) {
		t.Fatal("RAIDR must cost more than VRL")
	}
	if !(busy[vrldram.SchedVRL] > busy[vrldram.SchedVRLAccess]) {
		t.Fatal("VRL must cost more than VRL-Access on a high-coverage trace")
	}
}

func TestSimulateUnknownScheduler(t *testing.T) {
	sys := newSystem(t)
	if _, err := sys.Simulate("bogus", nil, 0.064); err == nil {
		t.Fatal("unknown scheduler must error")
	}
}

func TestGenerateTrace(t *testing.T) {
	sys := newSystem(t)
	acc, err := sys.GenerateTrace("canneal", 0.128)
	if err != nil {
		t.Fatal(err)
	}
	if len(acc) == 0 {
		t.Fatal("empty trace")
	}
	for i := 1; i < len(acc); i++ {
		if acc[i].Time < acc[i-1].Time {
			t.Fatal("trace not time-sorted")
		}
	}
	if _, err := sys.GenerateTrace("nope", 0.1); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

func TestMPRSFHistogram(t *testing.T) {
	sys := newSystem(t)
	h, err := sys.MPRSFHistogram()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range h {
		total += c
	}
	if total != 8192 {
		t.Fatalf("histogram sums to %d", total)
	}
	if len(h) != 4 {
		t.Fatalf("nbits=2 must cap at 3: %v", h)
	}
}

func TestModelTRFCAndRestoreCurve(t *testing.T) {
	sys := newSystem(t)
	b, err := sys.ModelTRFC(0.5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if b.TotalCycles <= 0 || b.RestoreAlpha <= 0 {
		t.Fatalf("breakdown: %+v", b)
	}
	pts, err := sys.RestoreCurve(0.5, 21)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 21 || pts[0].FracCharge != 0.5 {
		t.Fatalf("curve: %v", pts[:2])
	}
}

func TestExperimentsRegistry(t *testing.T) {
	exps := vrldram.Experiments()
	if len(exps) < 10 {
		t.Fatalf("%d experiments", len(exps))
	}
	ids := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" {
			t.Fatalf("bad entry: %+v", e)
		}
		ids[e.ID] = true
	}
	for _, must := range []string{"fig1a", "fig4", "tab1", "tab2"} {
		if !ids[must] {
			t.Errorf("missing %s", must)
		}
	}
}

func TestWorstPatternStaysSafeByDefault(t *testing.T) {
	sys, err := vrldram.NewSystem(vrldram.Options{Pattern: "alternating"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.Simulate(vrldram.SchedVRL, nil, 0.768)
	if err != nil {
		t.Fatal(err)
	}
	if st.Violations != 0 {
		t.Fatalf("default guardband must survive the worst pattern: %d violations", st.Violations)
	}
}

func TestLinearDecayOptionWorks(t *testing.T) {
	sys, err := vrldram.NewSystem(vrldram.Options{Decay: "linear"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.Simulate(vrldram.SchedVRL, nil, 0.256)
	if err != nil {
		t.Fatal(err)
	}
	if st.Violations != 0 {
		t.Fatalf("linear decay run violated: %d", st.Violations)
	}
}

func TestSmallCustomBank(t *testing.T) {
	sys, err := vrldram.NewSystem(vrldram.Options{Rows: 1024, Cols: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.Simulate(vrldram.SchedVRL, nil, 0.256)
	if err != nil {
		t.Fatal(err)
	}
	if st.FullRefreshes+st.PartialRefreshes == 0 || st.Violations != 0 {
		t.Fatalf("custom bank run: %+v", st)
	}
}
