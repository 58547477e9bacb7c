package dram

import (
	"math"
	"reflect"
	"testing"

	"vrldram/internal/device"
	"vrldram/internal/retention"
)

func smallProfile(t *testing.T) *retention.BankProfile {
	t.Helper()
	geom := device.BankGeometry{Rows: 16, Cols: 4}
	p := &retention.BankProfile{
		Geom:     geom,
		True:     make([]float64, geom.Rows),
		Profiled: make([]float64, geom.Rows),
	}
	for r := range p.True {
		p.True[r] = 0.064 * float64(r+2) // 128 ms .. ~1.1 s
		p.Profiled[r] = retention.ProfileRetention(p.True[r])
	}
	return p
}

func newBank(t *testing.T) *Bank {
	t.Helper()
	b, err := NewBank(smallProfile(t), retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBankValidation(t *testing.T) {
	if _, err := NewBank(nil, retention.ExpDecay{}, retention.PatternAllZeros); err == nil {
		t.Fatal("nil profile must be rejected")
	}
	p := smallProfile(t)
	p.True = p.True[:3]
	if _, err := NewBank(p, retention.ExpDecay{}, retention.PatternAllZeros); err == nil {
		t.Fatal("mismatched profile size must be rejected")
	}
	// Nil decay defaults to exponential.
	b, err := NewBank(smallProfile(t), nil, retention.PatternAllZeros)
	if err != nil || b.Decay.Name() != "exponential" {
		t.Fatalf("nil decay should default: %v, %v", b, err)
	}
}

func TestChargeDecaysPerModel(t *testing.T) {
	b := newBank(t)
	row := 5
	tret := b.Profile.True[row] // all-zeros pattern: factor 1
	v, err := b.ChargeAt(row, Ticks(tret))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("charge at the retention time = %v, want 0.5", v)
	}
	v0, err := b.ChargeAt(row, Ticks(0))
	if err != nil || v0 != 1 {
		t.Fatalf("initial charge = %v, %v", v0, err)
	}
}

func TestPatternScalesDecay(t *testing.T) {
	pAlt, err := NewBank(smallProfile(t), retention.ExpDecay{}, retention.PatternAlternating)
	if err != nil {
		t.Fatal(err)
	}
	pZero, err := NewBank(smallProfile(t), retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}
	tEval := 0.1
	vAlt, _ := pAlt.ChargeAt(3, Ticks(tEval))
	vZero, _ := pZero.ChargeAt(3, Ticks(tEval))
	if vAlt >= vZero {
		t.Fatalf("worst-case pattern should leak faster: %v vs %v", vAlt, vZero)
	}
}

func TestChargeAtErrors(t *testing.T) {
	b := newBank(t)
	if _, err := b.ChargeAt(-1, Ticks(0)); err == nil {
		t.Fatal("negative row must error")
	}
	if _, err := b.ChargeAt(99, Ticks(0)); err == nil {
		t.Fatal("out-of-range row must error")
	}
	if _, err := b.Refresh(2, Ticks(0.05), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ChargeAt(2, Ticks(0.01)); err == nil {
		t.Fatal("time before last restore must error")
	}
}

func TestRefreshRestores(t *testing.T) {
	b := newBank(t)
	row, at := 4, 0.05
	before, _ := b.ChargeAt(row, Ticks(at))
	res, err := b.Refresh(row, Ticks(at), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ChargeBefore-before) > 1e-12 {
		t.Fatalf("recorded before = %v, want %v", res.ChargeBefore, before)
	}
	want := before + (1-before)*0.9
	if math.Abs(res.ChargeAfter-want) > 1e-12 {
		t.Fatalf("after = %v, want %v", res.ChargeAfter, want)
	}
	if math.Abs(res.ChargeRestored-(want-before)) > 1e-12 {
		t.Fatal("restored delta inconsistent")
	}
	now, _ := b.ChargeAt(row, Ticks(at))
	if math.Abs(now-want) > 1e-12 {
		t.Fatal("bank state not updated")
	}
	if _, err := b.Refresh(row, Ticks(at), 1.5); err == nil {
		t.Fatal("alpha > 1 must be rejected")
	}
}

// TestRefreshValidation: a row outside the bank, or a restore coefficient
// outside [0,1] (NaN included), is refused with an error and leaves the
// bank untouched.
func TestRefreshValidation(t *testing.T) {
	b := newBank(t)
	before := b.State()
	for _, c := range []struct {
		row   int
		alpha float64
	}{
		{-1, 1}, {b.Geom.Rows, 1}, {1, 1.5}, {1, -0.5}, {1, math.NaN()},
	} {
		if _, err := b.Refresh(c.row, Ticks(0.1), c.alpha); err == nil {
			t.Errorf("Refresh(row %d, alpha %g) accepted", c.row, c.alpha)
		}
	}
	if after := b.State(); !reflect.DeepEqual(before, after) {
		t.Fatal("a refused refresh mutated the bank")
	}
}

func TestAccessFullyRestores(t *testing.T) {
	b := newBank(t)
	charge, low, err := b.Access(3, Ticks(0.05), retention.SenseLimit)
	if err != nil {
		t.Fatal(err)
	}
	if low || charge != 0 {
		t.Fatalf("healthy row read low (charge %v)", charge)
	}
	v, _ := b.ChargeAt(3, Ticks(0.05))
	if v != 1 {
		t.Fatal("state not updated")
	}
}

// TestAccessReportsExactLowCharge: a read below the caller's limit returns
// the exact sensed charge, and one below the sensing limit records it.
func TestAccessReportsExactLowCharge(t *testing.T) {
	b := newBank(t)
	row := 0 // true retention 128 ms
	at := Ticks(b.Profile.True[row] * 0.9)
	want, _ := b.ChargeAt(row, at)
	charge, low, err := b.Access(row, at, 0.9)
	if err != nil || !low || charge != want {
		t.Fatalf("Access = (%v, %v, %v), want (%v, true, nil)", charge, low, err, want)
	}
	if b.ViolationCount() != 0 {
		t.Fatalf("a charge of %v above the sensing limit booked a violation", want)
	}
	at += Ticks(b.Profile.True[row] * 1.5)
	want, _ = b.ChargeAt(row, at)
	if charge, low, err = b.Access(row, at, 0); err != nil || low || charge != 0 {
		t.Fatalf("limit 0: Access = (%v, %v, %v), want (0, false, nil)", charge, low, err)
	}
	if v := b.Violations(); len(v) != 1 || v[0].Charge != want {
		t.Fatalf("violations %+v, want one at charge %v", v, want)
	}
	if _, _, err := b.Access(row, at-1, 0); err == nil {
		t.Fatal("Access before the row's last restore accepted")
	}
	if _, _, err := b.Access(-1, at, 0); err == nil {
		t.Fatal("Access on row -1 accepted")
	}
}

// TestSetStateRejectsNaNCharge: a NaN charge compares false against every
// limit, so a row holding one would sense clean forever.
func TestSetStateRejectsNaNCharge(t *testing.T) {
	b := newBank(t)
	s := b.State()
	s.Charge[0] = math.NaN()
	if err := b.SetState(s); err == nil {
		t.Fatal("SetState accepted a NaN charge")
	}
}

func TestViolationRecordedOnLateSense(t *testing.T) {
	b := newBank(t)
	row := 0 // true retention 128 ms
	late := b.Profile.True[row] * 1.5
	if _, err := b.Refresh(row, Ticks(late), 1); err != nil {
		t.Fatal(err)
	}
	viol := b.Violations()
	if len(viol) != 1 {
		t.Fatalf("got %d violations, want 1", len(viol))
	}
	if viol[0].Row != row || viol[0].Charge >= retention.SenseLimit {
		t.Fatalf("violation record wrong: %+v", viol[0])
	}
	// A timely refresh records nothing further.
	if _, err := b.Refresh(1, Ticks(0.01), 1); err != nil {
		t.Fatal(err)
	}
	if len(b.Violations()) != 1 {
		t.Fatal("timely refresh must not record a violation")
	}
}

func TestCheckAll(t *testing.T) {
	b := newBank(t)
	// At 100 ms, row 0 (128 ms retention) is still fine; at 200 ms it is not.
	bad, err := b.CheckAll(Ticks(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("unexpected failures at 100 ms: %d", bad)
	}
	b2 := newBank(t)
	bad, err = b2.CheckAll(Ticks(0.2))
	if err != nil {
		t.Fatal(err)
	}
	if bad == 0 {
		t.Fatal("row 0 must have failed by 200 ms")
	}
	if len(b2.Violations()) != bad {
		t.Fatal("CheckAll must record its failures")
	}
}

func TestRepeatedRefreshKeepsChargeUp(t *testing.T) {
	b := newBank(t)
	row := 0
	period := 0.064
	for k := 1; k <= 20; k++ {
		if _, err := b.Refresh(row, Ticks(float64(k)*period), 0.999); err != nil {
			t.Fatal(err)
		}
	}
	if len(b.Violations()) != 0 {
		t.Fatalf("violations under timely full refreshes: %d", len(b.Violations()))
	}
	v, _ := b.ChargeAt(row, Ticks(20*period))
	if v < 0.99 {
		t.Fatalf("charge after steady refreshing = %v", v)
	}
}

func TestBankWithVRT(t *testing.T) {
	b := newBank(t)
	v := retention.DefaultVRT()
	if err := b.SetVRT(&v); err != nil {
		t.Fatal(err)
	}
	// Charge still decays and stays in [0, 1].
	for _, row := range []int{0, 7, 15} {
		c, err := b.ChargeAt(row, Ticks(0.05))
		if err != nil {
			t.Fatal(err)
		}
		if c <= 0 || c > 1 {
			t.Fatalf("row %d charge %v out of range", row, c)
		}
	}
	bad := retention.VRT{AffectedFrac: 2}
	if err := b.SetVRT(&bad); err == nil {
		t.Fatal("invalid VRT must be rejected")
	}
	if err := b.SetVRT(nil); err != nil || b.VRT != nil {
		t.Fatal("detaching VRT failed")
	}
}
