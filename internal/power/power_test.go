package power

import (
	"testing"
	"vrldram/internal/dram"

	"vrldram/internal/device"
	"vrldram/internal/sim"
)

func TestDefaultModelValidates(t *testing.T) {
	m := Default90nm(device.Default90nm(), device.PaperBank)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadCoefficients(t *testing.T) {
	base := Default90nm(device.Default90nm(), device.PaperBank)
	muts := []func(*Model){
		func(m *Model) { m.ActivationEnergy = 0 },
		func(m *Model) { m.PeripheralPower = -1 },
		func(m *Model) { m.RestoreEnergyPerRow = 0 },
	}
	for i, mut := range muts {
		m := base
		mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestRefreshEnergyBreakdown(t *testing.T) {
	p := device.Default90nm()
	m := Default90nm(p, device.PaperBank)
	st := sim.Stats{
		Scheduler:        "test",
		Duration:         0.768,
		FullRefreshes:    1000,
		PartialRefreshes: 500,
		BusyCycles:       1000*19 + 500*11,
		ChargeRestored:   chargeOf(300),
	}
	b, err := m.RefreshEnergy(st, p.TCK)
	if err != nil {
		t.Fatal(err)
	}
	if b.Total != b.Activation+b.Peripheral+b.Restore {
		t.Fatal("breakdown does not sum")
	}
	if b.Activation != m.ActivationEnergy*1500 {
		t.Fatalf("activation = %v", b.Activation)
	}
	if b.Peripheral != m.PeripheralPower*float64(st.BusyCycles)*p.TCK {
		t.Fatalf("peripheral = %v", b.Peripheral)
	}
	if b.Restore != m.RestoreEnergyPerRow*300 {
		t.Fatalf("restore = %v", b.Restore)
	}
	if b.AvgPower <= 0 {
		t.Fatal("average power must be positive")
	}
	if b.Scheduler != "test" {
		t.Fatal("scheduler label lost")
	}
}

func TestRefreshEnergyErrors(t *testing.T) {
	p := device.Default90nm()
	m := Default90nm(p, device.PaperBank)
	if _, err := m.RefreshEnergy(sim.Stats{}, 0); err == nil {
		t.Fatal("zero tck must be rejected")
	}
	bad := m
	bad.ActivationEnergy = 0
	if _, err := bad.RefreshEnergy(sim.Stats{}, p.TCK); err == nil {
		t.Fatal("invalid model must be rejected")
	}
}

func TestPartialRefreshSavesLessPowerThanTime(t *testing.T) {
	// The paper's structure: a partial refresh is 11/19 of the time but,
	// because the per-op activation energy is unchanged, more than 11/19 of
	// the energy.
	p := device.Default90nm()
	m := Default90nm(p, device.PaperBank)
	full := sim.Stats{Duration: 1, FullRefreshes: 1, BusyCycles: 19, ChargeRestored: chargeOf(0.2)}
	part := sim.Stats{Duration: 1, PartialRefreshes: 1, BusyCycles: 11, ChargeRestored: chargeOf(0.19)}
	ef, err := m.RefreshEnergy(full, p.TCK)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := m.RefreshEnergy(part, p.TCK)
	if err != nil {
		t.Fatal(err)
	}
	timeRatio := 11.0 / 19.0
	energyRatio := ep.Total / ef.Total
	if energyRatio <= timeRatio {
		t.Fatalf("energy ratio %v should exceed time ratio %v", energyRatio, timeRatio)
	}
	if energyRatio >= 1 {
		t.Fatalf("partial refresh must still save energy: ratio %v", energyRatio)
	}
}

// chargeOf is a ChargeSum holding x.
func chargeOf(x float64) dram.ChargeSum {
	var s dram.ChargeSum
	s.Add(x)
	return s
}
