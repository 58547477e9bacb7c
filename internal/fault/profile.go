package fault

import (
	"fmt"

	"vrldram/internal/retention"
)

// MisBinProfile returns a copy of the profile in which a seed-selected
// fraction of rows report an optimistic PROFILED retention: each victim's
// profiled value is inflated just past the next-slower bin boundary, so a
// scheduler consuming it places the row one bin slower than it can sustain.
// True retention is untouched - the silicon does not read the datasheet.
// This models a stale profile (the row drifted since profiling) or an
// insufficiently margined profiler. Rows already in the top bin are left
// alone (there is no slower bin to mis-place them into).
//
// It returns the corrupted profile and the number of rows mis-binned.
func MisBinProfile(p *retention.BankProfile, frac float64, bins []float64, seed int64) (*retention.BankProfile, int, error) {
	if !(frac >= 0 && frac <= 1) { // rejects NaN too
		return nil, 0, fmt.Errorf("fault: mis-bin fraction %g outside [0,1]", frac)
	}
	if len(bins) == 0 {
		bins = retention.RAIDRBins
	}
	sorted := retention.SortedBins(bins)
	out := &retention.BankProfile{
		Geom:     p.Geom,
		True:     p.True,
		Profiled: append([]float64(nil), p.Profiled...),
	}
	rng := newRNG(seed)
	injected := 0
	for r := range out.Profiled {
		if rng.Float64() >= frac {
			continue
		}
		cur, err := retention.BinPeriod(out.Profiled[r], sorted)
		if err != nil {
			return nil, 0, fmt.Errorf("fault: row %d: %w", r, err)
		}
		next := -1.0
		for i, b := range sorted {
			if b == cur && i+1 < len(sorted) {
				next = sorted[i+1]
				break
			}
		}
		if next < 0 {
			continue // top bin: nothing slower to claim
		}
		out.Profiled[r] = next * 1.001
		injected++
	}
	return out, injected, nil
}
