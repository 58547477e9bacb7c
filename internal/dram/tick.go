// Integer simulation time and the exact restored-charge sum.
//
// The simulator holds every event time, last-restore time and refresh
// period as an int64 count of Ticks. Every period of the paper's retention
// bins is a whole number of ticks (64 ms is exactly 51 200 000), so a row
// refreshed on a steady period sees the same interval refresh after
// refresh, where float64 seconds drift in the last bits as t grows. Decay
// laws, scenarios and VRT keep their float-second APIs: the bank hands them
// Seconds(ticks).
package dram

import (
	"fmt"
	"math"
	"math/bits"
)

// Tick is the simulator's time quantum in seconds: one clock cycle (tCK) of
// the 90 nm device.
const Tick = 1.25e-9

// ticksPerSecond is 1/Tick, exact in float64, so converting seconds to
// ticks is one multiplication.
const ticksPerSecond = 1 / Tick

// MaxSeconds is the longest span int64 ticks can hold, about 365 years.
const MaxSeconds = float64(math.MaxInt64) * Tick

// Ticks converts seconds to the nearest tick. The input must be finite and
// within ±MaxSeconds (see CheckSeconds); out-of-range inputs saturate.
func Ticks(s float64) int64 {
	x := math.Round(s * ticksPerSecond)
	switch {
	case x >= math.MaxInt64:
		return math.MaxInt64
	case x <= math.MinInt64:
		return math.MinInt64
	case x != x:
		return 0
	}
	return int64(x)
}

// Seconds converts ticks to seconds.
func Seconds(t int64) float64 { return float64(t) * Tick }

// CheckSeconds rejects a time or duration the tick clock cannot represent:
// NaN, ±Inf, and anything beyond ±MaxSeconds.
func CheckSeconds(what string, s float64) error {
	if math.IsNaN(s) || math.IsInf(s, 0) || math.Abs(s) >= MaxSeconds {
		return fmt.Errorf("%s %g is not a finite time within ±%.4g s (the int64 tick range)", what, s, MaxSeconds)
	}
	return nil
}

// chargeScale is the fixed-point grid of ChargeSum: 2^-40 of a full charge.
const chargeScale = 1 << 40

// ChargeSum is an exact sum of restore deltas. Each delta is rounded once
// onto a 2^-40 grid and added into a 128-bit two's-complement accumulator,
// so the sum does not depend on the order of its terms: a fast path may
// accumulate row by row what the reference accumulates event by event, and
// a repeated span may be added as one multiple. One paper-bank hyperperiod
// adds about 1.25e16 grid units, so an int64 would overflow within an hour
// of simulated time; 128 bits hold far beyond the tick range.
type ChargeSum struct {
	Hi, Lo uint64
}

// Add folds one restore delta into the sum.
func (s *ChargeSum) Add(delta float64) {
	q := int64(math.Round(delta * chargeScale))
	var c uint64
	s.Lo, c = bits.Add64(s.Lo, uint64(q), 0)
	s.Hi += uint64(q>>63) + c
}

// Plus returns s + o.
func (s ChargeSum) Plus(o ChargeSum) ChargeSum {
	lo, c := bits.Add64(s.Lo, o.Lo, 0)
	return ChargeSum{Hi: s.Hi + o.Hi + c, Lo: lo}
}

// Minus returns s - o.
func (s ChargeSum) Minus(o ChargeSum) ChargeSum {
	lo, b := bits.Sub64(s.Lo, o.Lo, 0)
	return ChargeSum{Hi: s.Hi - o.Hi - b, Lo: lo}
}

// Times returns k·s for k >= 0 (modulo 2^128, like every other operation).
func (s ChargeSum) Times(k int64) ChargeSum {
	hi, lo := bits.Mul64(s.Lo, uint64(k))
	return ChargeSum{Hi: hi + s.Hi*uint64(k), Lo: lo}
}

// Float64 returns the sum in units of full charge.
func (s ChargeSum) Float64() float64 {
	if int64(s.Hi) < 0 {
		return -ChargeSum{}.Minus(s).Float64()
	}
	return (float64(s.Hi)*(1<<64) + float64(s.Lo)) / chargeScale
}
