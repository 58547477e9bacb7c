package dram

import (
	"reflect"
	"testing"

	"vrldram/internal/device"
	"vrldram/internal/retention"
)

// TestRetire covers the spare-row quarantine contract: a retired row's
// sub-limit senses stop counting as violations (its data lives on a spare),
// CheckAll skips it, and retirement round-trips through State/SetState.
func TestRetire(t *testing.T) {
	profile := &retention.BankProfile{
		Geom: device.BankGeometry{Rows: 4, Cols: 32},
		// Row 1 decays to ~1e-4 of its charge within 64 ms; the others hold.
		True:     []float64{10, 0.005, 10, 10},
		Profiled: []float64{10, 0.005, 10, 10},
	}
	b, err := NewBank(profile, retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}

	// Unretired: the dead row violates on sense.
	if _, err := b.Refresh(1, Ticks(0.064), 1); err != nil {
		t.Fatal(err)
	}
	if n := len(b.Violations()); n != 1 {
		t.Fatalf("violations before retirement: %d, want 1", n)
	}

	if err := b.Retire(1); err != nil {
		t.Fatal(err)
	}
	if got := b.Retired(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("Retired() = %v, want [1]", got)
	}

	// Retired: the same sag no longer books violations, from Refresh, Access,
	// or the end-of-run sweep.
	if _, err := b.Refresh(1, Ticks(0.128), 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Access(1, Ticks(0.192), 0); err != nil {
		t.Fatal(err)
	}
	bad, err := b.CheckAll(Ticks(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("CheckAll counted %d bad rows with the dead row retired", bad)
	}
	if n := len(b.Violations()); n != 1 {
		t.Fatalf("violations after retirement: %d, want still 1", n)
	}

	// Bounds checking.
	if err := b.Retire(-1); err == nil {
		t.Fatal("Retire(-1) accepted")
	}
	if err := b.Retire(4); err == nil {
		t.Fatal("Retire(4) accepted")
	}

	// State round trip preserves retirement; SetState validates rows.
	st := b.State()
	if !reflect.DeepEqual(st.Retired, []int{1}) {
		t.Fatalf("state retired %v, want [1]", st.Retired)
	}
	b2, err := NewBank(profile, retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.SetState(st); err != nil {
		t.Fatal(err)
	}
	if got := b2.Retired(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("retirement lost in SetState round trip: %v", got)
	}
	// SetState replaces, not merges: restoring a no-retirement state clears.
	if err := b2.Retire(2); err != nil {
		t.Fatal(err)
	}
	if err := b2.SetState(st); err != nil {
		t.Fatal(err)
	}
	if got := b2.Retired(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("SetState merged instead of replacing: %v", got)
	}
	st.Retired = []int{99}
	if err := b2.SetState(st); err == nil {
		t.Fatal("SetState accepted an out-of-range retired row")
	}
}
