// Package stats provides lightweight metric accumulators used throughout
// the simulator: running means (Welford), unit-bin histograms with exact
// percentiles, windowed time series, and a plain-text/CSV/JSON table.
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
	"sort"
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

// AddN records the same observation n times. It applies the batched
// (Chan et al.) form of the Welford update in O(1): n identical
// observations form a degenerate accumulator with mean x and zero
// spread, which Merge folds in exactly. For an empty accumulator the
// result is bit-identical to n repeated Add calls; after prior
// observations it can differ from the iterated form only in the last
// few ULPs (the iterated form accumulates n rounding steps, the batched
// form one).
func (m *Mean) AddN(x float64, n int64) {
	if n <= 0 {
		return
	}
	m.Merge(&Mean{n: n, mean: x, min: x, max: x})
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

// StdErr returns the standard error of the mean.
func (m *Mean) StdErr() float64 {
	if m.n == 0 {
		return 0
	}
	return m.StdDev() / math.Sqrt(float64(m.n))
}

// Merge folds other into m, as if every observation of other had been
// added to m.
func (m *Mean) Merge(other *Mean) {
	if other.n == 0 {
		return
	}
	if m.n == 0 {
		*m = *other
		return
	}
	n := m.n + other.n
	d := other.mean - m.mean
	mean := m.mean + d*float64(other.n)/float64(n)
	m.m2 += other.m2 + d*d*float64(m.n)*float64(other.n)/float64(n)
	if other.min < m.min {
		m.min = other.min
	}
	if other.max > m.max {
		m.max = other.max
	}
	m.mean = mean
	m.n = n
}

// Reset discards all observations.
func (m *Mean) Reset() { *m = Mean{} }

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

// Series records a value per fixed-size window of cycles, for saturation
// detection and warm-up trimming.
type Series struct {
	Window int64 // cycles per window; 0 means 1000
	points []float64
	cur    Mean
	curEnd int64
}

// Observe records an observation at the given cycle. Cycles must be
// non-decreasing across calls.
func (s *Series) Observe(cycle int64, v float64) {
	w := s.Window
	if w <= 0 {
		w = 1000
	}
	if s.curEnd == 0 {
		s.curEnd = w
	}
	for cycle >= s.curEnd {
		s.points = append(s.points, s.cur.Mean())
		s.cur.Reset()
		s.curEnd += w
	}
	s.cur.Add(v)
}

// Points returns the completed window means.
func (s *Series) Points() []float64 { return s.points }

// Last returns the mean of the most recent completed window, or 0.
func (s *Series) Last() float64 {
	if len(s.points) == 0 {
		return 0
	}
	return s.points[len(s.points)-1]
}

// Median returns the median of a slice (which it sorts in place).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// Ratio returns a/b, or 0 when b is 0; convenient for normalized tables.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
