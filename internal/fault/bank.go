package fault

import (
	"fmt"
	"math"

	"vrldram/internal/retention"
)

// Bank-level injectors: retention loss the profile knows nothing about.
// Both reuse the retention.VRT telegraph process (attach with bank.SetVRT),
// so the decay integration stays exact and deterministic.

// TransientWeakCells models metastable cells toggling into a low-retention
// state: frac of rows (hash-selected by the VRT process) retain retFactor
// times less while low, dwelling ~dwell seconds per state. Unlike the
// default VRT model it does not exclude short-retention rows - a fault
// injector gets to hit the rows that hurt.
func TransientWeakCells(frac, retFactor, dwell float64, seed int64) (*retention.VRT, error) {
	v := &retention.VRT{
		AffectedFrac: frac,
		LowFactor:    retFactor,
		MeanDwell:    dwell,
		MinRetention: 0,
		Seed:         seed,
	}
	if err := v.Validate(); err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	return v, nil
}

// DefaultTransientWeakCells hits 5% of rows with a 0.55x retention low
// state dwelling 10 s - effectively a persistent excursion over a sub-second
// simulation window, active from t = 0 for roughly half the affected rows
// (telegraph phase decides which).
func DefaultTransientWeakCells(seed int64) *retention.VRT {
	v, err := TransientWeakCells(0.05, 0.55, 10, seed)
	if err != nil {
		panic(err) // unreachable: the defaults validate
	}
	return v
}

// TemperatureExcursion returns a copy of the profile whose TRUE retention
// is derated for operation at tempC while the PROFILED values still claim
// the profiling temperature (m.RefC): the controller schedules from a
// profile measured on a cooler chip than the one it is driving. Cooler
// operation (tempC < m.RefC) only adds margin and is returned unchanged in
// spirit (scale > 1).
func TemperatureExcursion(p *retention.BankProfile, m retention.TempModel, tempC float64) (*retention.BankProfile, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	if math.IsNaN(tempC) || math.IsInf(tempC, 0) {
		return nil, fmt.Errorf("fault: operating temperature must be finite, got %g", tempC)
	}
	s := m.Scale(tempC)
	out := &retention.BankProfile{
		Geom:     p.Geom,
		True:     make([]float64, len(p.True)),
		Profiled: p.Profiled,
	}
	for i, t := range p.True {
		out.True[i] = t * s
	}
	return out, nil
}
