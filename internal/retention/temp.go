package retention

import (
	"fmt"
	"math"
)

// Temperature dependence of retention. DRAM leakage is thermally activated:
// as a rule of thumb (used across the retention literature the paper cites),
// retention time halves for roughly every 10 degC of temperature increase.
// Profiles are measured at a reference worst-case temperature (85 degC, the
// upper end of the commercial range); running cooler adds margin, running
// hotter erodes it.

// TempModel converts retention times between operating temperatures.
type TempModel struct {
	// RefC is the temperature the profile's retention values refer to (degC).
	RefC float64
	// HalvingC is the temperature increase that halves retention (degC).
	HalvingC float64
}

// DefaultTempModel returns the standard 85 degC reference with a 10 degC
// halving slope.
func DefaultTempModel() TempModel {
	return TempModel{RefC: 85, HalvingC: 10}
}

// Validate reports the first unusable parameter. Both must be finite: a
// NaN or infinite one makes every scaled retention NaN, 0 or infinite.
func (m TempModel) Validate() error {
	if math.IsNaN(m.RefC) || math.IsInf(m.RefC, 0) {
		return fmt.Errorf("retention: reference temperature must be finite, got %g", m.RefC)
	}
	if !(m.HalvingC > 0) || math.IsInf(m.HalvingC, 1) {
		return fmt.Errorf("retention: temperature halving slope must be positive and finite, got %g", m.HalvingC)
	}
	return nil
}

// Scale returns the multiplicative retention factor when moving from the
// reference temperature to tempC: > 1 when cooler, < 1 when hotter.
func (m TempModel) Scale(tempC float64) float64 {
	return math.Exp2((m.RefC - tempC) / m.HalvingC)
}

// AtTemperature returns a copy of the profile with both true and profiled
// retention rescaled to the given operating temperature. Use it to model a
// bank running cooler or hotter than its profiling conditions; binning the
// rescaled profile implements temperature-compensated refresh.
func (m TempModel) AtTemperature(p *BankProfile, tempC float64) *BankProfile {
	s := m.Scale(tempC)
	out := &BankProfile{
		Geom:     p.Geom,
		True:     make([]float64, len(p.True)),
		Profiled: make([]float64, len(p.Profiled)),
	}
	for i := range p.True {
		out.True[i] = p.True[i] * s
	}
	for i := range p.Profiled {
		out.Profiled[i] = p.Profiled[i] * s
	}
	return out
}
