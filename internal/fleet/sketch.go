package fleet

import (
	"fmt"
	"math"

	"vrldram/internal/core"
	"vrldram/internal/sim"
)

// Mergeable aggregates. Every accumulator in this file is an integer
// counter, which is the whole point: int64 addition is associative and
// commutative, so merging shard summaries in ANY order - completion order,
// index order, resumed-manifest order - produces the same bytes. Floating
// point sums would not survive reordering; the one float-born quantity we
// keep (restored charge) is quantized per device before it enters the
// aggregate.

// Hist is a fixed-bin histogram over [Lo, Hi): Bins equal-width bins plus
// explicit underflow/overflow counters, so no sample is silently dropped
// and two histograms merge exactly when their binning is identical.
type Hist struct {
	Lo, Hi float64
	Counts []int64
	Under  int64 // samples below Lo
	Over   int64 // samples at or above Hi
}

// NewHist builds an empty histogram; bins must be positive and Lo < Hi.
func NewHist(lo, hi float64, bins int) *Hist {
	if bins <= 0 || !(lo < hi) {
		panic(fmt.Sprintf("fleet: impossible histogram [%g,%g)/%d", lo, hi, bins))
	}
	return &Hist{Lo: lo, Hi: hi, Counts: make([]int64, bins)}
}

// Add records one sample.
func (h *Hist) Add(v float64) {
	switch {
	case math.IsNaN(v) || v >= h.Hi:
		h.Over++
	case v < h.Lo:
		h.Under++
	default:
		i := int(float64(len(h.Counts)) * (v - h.Lo) / (h.Hi - h.Lo))
		if i >= len(h.Counts) { // float edge: v just under Hi can round up
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// Total returns the number of recorded samples.
func (h *Hist) Total() int64 {
	n := h.Under + h.Over
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Merge folds o into h. The binnings must match exactly; a mismatch means
// the two sides were built from different Specs and merging would be a
// silent statistical lie.
func (h *Hist) Merge(o *Hist) error {
	if o == nil {
		return nil
	}
	if h.Lo != o.Lo || h.Hi != o.Hi || len(h.Counts) != len(o.Counts) {
		return fmt.Errorf("fleet: histogram shape mismatch ([%g,%g)/%d vs [%g,%g)/%d)",
			h.Lo, h.Hi, len(h.Counts), o.Lo, o.Hi, len(o.Counts))
	}
	h.Under += o.Under
	h.Over += o.Over
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	return nil
}

// Quantile returns the upper edge of the bin holding the ceil(q*N)-th
// smallest sample - a rank-based estimate that is a pure function of the
// counts, so any two merged histograms with equal counts report equal
// quantiles. Underflow resolves to Lo, overflow to Hi. An empty histogram
// returns NaN.
func (h *Hist) Quantile(q float64) float64 {
	total := h.Total()
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	cum := h.Under
	if rank <= cum {
		return h.Lo
	}
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		cum += c
		if rank <= cum {
			return h.Lo + float64(i+1)*width
		}
	}
	return h.Hi
}

func (h *Hist) encodeTo(e *core.StateEncoder) {
	e.Float(h.Lo)
	e.Float(h.Hi)
	e.Int(int64(len(h.Counts)))
	for _, c := range h.Counts {
		e.Int(c)
	}
	e.Int(h.Under)
	e.Int(h.Over)
}

func decodeHistFrom(d *core.StateDecoder) *Hist {
	h := &Hist{Lo: d.Float(), Hi: d.Float()}
	n := d.Int()
	if d.Err() != nil {
		return h
	}
	if n <= 0 || n > maxHistBins {
		d.Fail("fleet: histogram bin count %d outside (0,%d]", n, maxHistBins)
		return h
	}
	h.Counts = make([]int64, n)
	for i := range h.Counts {
		h.Counts[i] = d.Int()
	}
	h.Under = d.Int()
	h.Over = d.Int()
	if d.Err() == nil {
		if !(h.Lo < h.Hi) || math.IsNaN(h.Lo) || math.IsNaN(h.Hi) {
			d.Fail("fleet: histogram range [%g,%g) invalid", h.Lo, h.Hi)
		}
		for _, c := range append([]int64{h.Under, h.Over}, h.Counts...) {
			if c < 0 {
				d.Fail("fleet: negative histogram count %d", c)
				break
			}
		}
	}
	return h
}

// maxHistBins bounds decoded histogram allocations against corrupt or
// hostile length fields (the container CRC catches corruption first; this
// guards the codec itself, fuzz included).
const maxHistBins = 1 << 16

// Summary binning. Fixed constants, not Spec knobs: summaries from any two
// campaigns over the same population merge, and the fuzz/codec surface has
// one shape to validate.
const (
	overheadBins   = 512 // refresh overhead, percent of wall time, [0, 32)%
	overheadMaxPct = 32.0
	violBins       = 256 // violations per device, [0, 256)
	violMax        = 256.0
	partialBins    = 256 // partial refreshes, percent of all refreshes, [0, 100)%
	partialMaxPct  = 100.0
	escBins        = 64 // guard escalations per device, [0, 64)
	escMax         = 64.0
	sloBins        = 64 // scrub SLO misses per device, [0, 64)
	sloMax         = 64.0
	spareBins      = 101 // spare-row utilization per device, [0, 101)%
	spareMaxPct    = 101.0
)

// Summary is the mergeable fleet aggregate: population-wide integer totals
// plus per-device distribution sketches.
type Summary struct {
	Devices          int64 // devices aggregated
	ViolatingDevices int64 // devices with at least one sub-limit sensing event
	WeakDevices      int64 // devices whose fault plan included the VRT injector
	Violations       int64
	FullRefreshes    int64
	PartialRefreshes int64
	BusyCycles       int64
	FaultsInjected   int64
	// ChargeMicro accumulates each device's normalized restored charge,
	// quantized to 1e-6 units per device so the sum is an integer (and the
	// merge therefore order-independent).
	ChargeMicro int64

	// Guard-pipeline totals (all zero unless the spec enabled the guard).
	GuardAlarms       int64
	GuardDemotions    int64
	GuardPromotions   int64
	GuardEscalations  int64
	GuardBreakerTrips int64

	// Scrub-pipeline totals (all zero unless the spec enabled the scrubber).
	ScrubCorrected     int64
	ScrubUncorrectable int64
	ScrubReprofiles    int64
	ScrubRemapped      int64
	ScrubHardFails     int64
	ScrubSLOMisses     int64

	Overhead     *Hist // per-device refresh overhead (% of wall time)
	DevViolation *Hist // per-device violation count
	PartialShare *Hist // per-device partial refreshes (% of refreshes)
	Escalations  *Hist // per-device guard escalations
	SLOMiss      *Hist // per-device scrub coverage-SLO misses
	SpareUse     *Hist // per-device spare-row utilization (% of budget consumed)
}

// NewSummary returns an empty summary with the standard binning.
func NewSummary() *Summary {
	return &Summary{
		Overhead:     NewHist(0, overheadMaxPct, overheadBins),
		DevViolation: NewHist(0, violMax, violBins),
		PartialShare: NewHist(0, partialMaxPct, partialBins),
		Escalations:  NewHist(0, escMax, escBins),
		SLOMiss:      NewHist(0, sloMax, sloBins),
		SpareUse:     NewHist(0, spareMaxPct, spareBins),
	}
}

// AddDevice folds one device's simulation statistics into the summary.
// tck is the device clock period (for the overhead fraction).
func (s *Summary) AddDevice(dev Device, st sim.Stats, tck float64) {
	s.Devices++
	if st.Violations > 0 {
		s.ViolatingDevices++
	}
	if dev.Weak {
		s.WeakDevices++
	}
	s.Violations += int64(st.Violations)
	s.FullRefreshes += st.FullRefreshes
	s.PartialRefreshes += st.PartialRefreshes
	s.BusyCycles += st.BusyCycles
	s.FaultsInjected += st.FaultsInjected
	s.ChargeMicro += int64(math.Round(st.ChargeRestored.Float64() * 1e6))

	s.GuardAlarms += st.Guard.Alarms
	s.GuardDemotions += st.Guard.Demotions
	s.GuardPromotions += st.Guard.Promotions
	s.GuardEscalations += st.Guard.Escalations
	s.GuardBreakerTrips += st.Guard.BreakerTrips

	s.ScrubCorrected += st.Scrub.Corrected
	s.ScrubUncorrectable += st.Scrub.Uncorrectable
	s.ScrubReprofiles += st.Scrub.Reprofiles
	s.ScrubRemapped += st.Scrub.RowsRemapped
	s.ScrubHardFails += st.Scrub.HardFails
	s.ScrubSLOMisses += st.Scrub.SLOMisses

	s.Overhead.Add(100 * st.OverheadFraction(tck))
	s.DevViolation.Add(float64(st.Violations))
	if total := st.Refreshes(); total > 0 {
		s.PartialShare.Add(100 * float64(st.PartialRefreshes) / float64(total))
	} else {
		s.PartialShare.Add(0)
	}
	// Every device lands in every sketch (zero when the pipeline is off or
	// idle), so each histogram's Total always equals Devices and merges
	// from guarded and unguarded campaigns stay shape-compatible.
	s.Escalations.Add(float64(st.Guard.Escalations))
	s.SLOMiss.Add(float64(st.Scrub.SLOMisses))
	if budget := st.Scrub.RowsRemapped + int64(st.Scrub.SparesLeft); budget > 0 {
		s.SpareUse.Add(100 * float64(st.Scrub.RowsRemapped) / float64(budget))
	} else {
		s.SpareUse.Add(0)
	}
}

// Merge folds o into s. Merging is associative and commutative, so shard
// summaries may arrive in any order - including twice-resumed manifest
// order - and produce identical bytes.
func (s *Summary) Merge(o *Summary) error {
	if o == nil {
		return nil
	}
	if err := s.Overhead.Merge(o.Overhead); err != nil {
		return err
	}
	if err := s.DevViolation.Merge(o.DevViolation); err != nil {
		return err
	}
	if err := s.PartialShare.Merge(o.PartialShare); err != nil {
		return err
	}
	if err := s.Escalations.Merge(o.Escalations); err != nil {
		return err
	}
	if err := s.SLOMiss.Merge(o.SLOMiss); err != nil {
		return err
	}
	if err := s.SpareUse.Merge(o.SpareUse); err != nil {
		return err
	}
	s.Devices += o.Devices
	s.ViolatingDevices += o.ViolatingDevices
	s.WeakDevices += o.WeakDevices
	s.Violations += o.Violations
	s.FullRefreshes += o.FullRefreshes
	s.PartialRefreshes += o.PartialRefreshes
	s.BusyCycles += o.BusyCycles
	s.FaultsInjected += o.FaultsInjected
	s.ChargeMicro += o.ChargeMicro
	s.GuardAlarms += o.GuardAlarms
	s.GuardDemotions += o.GuardDemotions
	s.GuardPromotions += o.GuardPromotions
	s.GuardEscalations += o.GuardEscalations
	s.GuardBreakerTrips += o.GuardBreakerTrips
	s.ScrubCorrected += o.ScrubCorrected
	s.ScrubUncorrectable += o.ScrubUncorrectable
	s.ScrubReprofiles += o.ScrubReprofiles
	s.ScrubRemapped += o.ScrubRemapped
	s.ScrubHardFails += o.ScrubHardFails
	s.ScrubSLOMisses += o.ScrubSLOMisses
	return nil
}

// Encode renders the summary canonically; equal summaries produce equal
// bytes, which is how the chaos tests assert exact fleet-level equality.
func (s *Summary) Encode() []byte {
	var e core.StateEncoder
	e.Tag("fsum2")
	s.encodeTo(&e)
	return e.Data()
}

func (s *Summary) encodeTo(e *core.StateEncoder) {
	e.Int(s.Devices)
	e.Int(s.ViolatingDevices)
	e.Int(s.WeakDevices)
	e.Int(s.Violations)
	e.Int(s.FullRefreshes)
	e.Int(s.PartialRefreshes)
	e.Int(s.BusyCycles)
	e.Int(s.FaultsInjected)
	e.Int(s.ChargeMicro)
	e.Int(s.GuardAlarms)
	e.Int(s.GuardDemotions)
	e.Int(s.GuardPromotions)
	e.Int(s.GuardEscalations)
	e.Int(s.GuardBreakerTrips)
	e.Int(s.ScrubCorrected)
	e.Int(s.ScrubUncorrectable)
	e.Int(s.ScrubReprofiles)
	e.Int(s.ScrubRemapped)
	e.Int(s.ScrubHardFails)
	e.Int(s.ScrubSLOMisses)
	s.Overhead.encodeTo(e)
	s.DevViolation.encodeTo(e)
	s.PartialShare.encodeTo(e)
	s.Escalations.encodeTo(e)
	s.SLOMiss.encodeTo(e)
	s.SpareUse.encodeTo(e)
}

func decodeSummaryFrom(d *core.StateDecoder) *Summary {
	s := &Summary{}
	s.Devices = d.Int()
	s.ViolatingDevices = d.Int()
	s.WeakDevices = d.Int()
	s.Violations = d.Int()
	s.FullRefreshes = d.Int()
	s.PartialRefreshes = d.Int()
	s.BusyCycles = d.Int()
	s.FaultsInjected = d.Int()
	s.ChargeMicro = d.Int()
	s.GuardAlarms = d.Int()
	s.GuardDemotions = d.Int()
	s.GuardPromotions = d.Int()
	s.GuardEscalations = d.Int()
	s.GuardBreakerTrips = d.Int()
	s.ScrubCorrected = d.Int()
	s.ScrubUncorrectable = d.Int()
	s.ScrubReprofiles = d.Int()
	s.ScrubRemapped = d.Int()
	s.ScrubHardFails = d.Int()
	s.ScrubSLOMisses = d.Int()
	s.Overhead = decodeHistFrom(d)
	s.DevViolation = decodeHistFrom(d)
	s.PartialShare = decodeHistFrom(d)
	s.Escalations = decodeHistFrom(d)
	s.SLOMiss = decodeHistFrom(d)
	s.SpareUse = decodeHistFrom(d)
	if d.Err() == nil && (s.Devices < 0 || s.Violations < 0) {
		d.Fail("fleet: negative summary counters")
	}
	return s
}

// DecodeSummary parses a canonical summary blob.
func DecodeSummary(blob []byte) (*Summary, error) {
	d := core.NewStateDecoder(blob)
	d.ExpectTag("fsum2")
	s := decodeSummaryFrom(d)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}
