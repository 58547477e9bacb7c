package main

import (
	"math"
	"sort"
)

// summary is the distribution of one metric's samples within a run.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the same rule as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so spreads printed here match the ones computed from the emitted values.
// A single sample is its own quartiles; none gives zeros.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Median: median(xs), Q1: q1, Q3: q3, N: len(xs)}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// tailPercentile is the highest of p50, p90, p99, p99.9 that has at least
// ten samples beyond it among n samples; ok is false when even the median
// has fewer than ten beyond it.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range []float64{99.9, 99, 90, 50} {
		if float64(n)*(100-c)/100 >= 10-1e-9 {
			return c, true
		}
	}
	return 0, false
}

// percentile is the nearest-rank p-th percentile of xs; 0 when empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
