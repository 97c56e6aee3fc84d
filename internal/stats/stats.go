// Package stats provides lightweight metric accumulators used throughout
// the simulator: running means (Welford), unit-bin histograms with exact
// percentiles, and a plain-text/CSV/JSON table.
//
// These are the numeric substrate of the paper's evaluation artifacts:
// Histogram supplies the latency distributions behind the Fig. 11 curves
// and the observability layer's p50/p95/p99 digests, Mean backs the
// replicated-seed confidence checks on every simulated table, and Table
// renders every table: the experiment drivers' (internal/exp) and the
// obs time series and summaries (internal/obs).
//
// All accumulators have useful zero values and are not safe for concurrent
// use; the simulator is single-threaded per network instance.
package stats

import (
	"fmt"
	"math"
)

// Mean accumulates a running mean and variance using Welford's algorithm,
// which is numerically stable for long simulations.
type Mean struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (m *Mean) Add(x float64) {
	if m.n == 0 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// N returns the number of observations.
func (m *Mean) N() int64 { return m.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (m *Mean) Mean() float64 { return m.mean }

// Min returns the smallest observation, or 0 with no observations.
func (m *Mean) Min() float64 { return m.min }

// Max returns the largest observation, or 0 with no observations.
func (m *Mean) Max() float64 { return m.max }

// Variance returns the sample variance, or 0 with fewer than two samples.
func (m *Mean) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the sample standard deviation.
func (m *Mean) StdDev() float64 { return math.Sqrt(m.Variance()) }

// String summarizes the accumulator.
func (m *Mean) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		m.n, m.Mean(), m.StdDev(), m.min, m.max)
}

// Histogram counts integer-valued observations in unit-width bins starting
// at zero. Values beyond the last bin land in an overflow bucket.
type Histogram struct {
	bins     []int64
	overflow int64
	total    int64
	sum      float64
}

// NewHistogram returns a histogram with the given number of unit bins.
func NewHistogram(bins int) *Histogram {
	return &Histogram{bins: make([]int64, bins)}
}

// Add records one observation.
func (h *Histogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	if v < len(h.bins) {
		h.bins[v]++
	} else {
		h.overflow++
	}
	h.total++
	h.sum += float64(v)
}

// N returns the number of observations.
func (h *Histogram) N() int64 { return h.total }

// Mean returns the mean observation.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Percentile returns the smallest bin index p such that at least q
// (0 < q <= 1) of the observations are <= p. Overflow observations are
// treated as belonging to the last bin + 1.
func (h *Histogram) Percentile(q float64) int {
	if h.total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.total)))
	var cum int64
	for i, c := range h.bins {
		cum += c
		if cum >= target {
			return i
		}
	}
	return len(h.bins)
}

// Ratio returns a/b, or 0 when b is 0; convenient for normalized tables.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
