package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanBasic(t *testing.T) {
	var m Mean
	for _, v := range []float64{1, 2, 3, 4, 5} {
		m.Add(v)
	}
	if m.N() != 5 {
		t.Fatalf("N = %d, want 5", m.N())
	}
	if !almostEq(m.Mean(), 3, 1e-12) {
		t.Errorf("Mean = %v, want 3", m.Mean())
	}
	if !almostEq(m.Variance(), 2.5, 1e-12) {
		t.Errorf("Variance = %v, want 2.5", m.Variance())
	}
	if m.Min() != 1 || m.Max() != 5 {
		t.Errorf("Min/Max = %v/%v, want 1/5", m.Min(), m.Max())
	}
}

func TestMeanEmpty(t *testing.T) {
	var m Mean
	if m.Mean() != 0 || m.Variance() != 0 {
		t.Errorf("zero-value Mean should report zeros, got %v", m.String())
	}
}

func TestMeanSingle(t *testing.T) {
	var m Mean
	m.Add(7)
	if m.Variance() != 0 {
		t.Errorf("variance of one sample = %v, want 0", m.Variance())
	}
	if m.Mean() != 7 || m.Min() != 7 || m.Max() != 7 {
		t.Errorf("single sample stats wrong: %v", m.String())
	}
}

// Property: mean is always within [min, max].
func TestMeanBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var m Mean
		any := false
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				continue
			}
			m.Add(x)
			any = true
		}
		if !any {
			return true
		}
		return m.Mean() >= m.Min()-1e-9 && m.Mean() <= m.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10)
	for v := 0; v < 15; v++ {
		h.Add(v)
	}
	if h.N() != 15 {
		t.Fatalf("N = %d, want 15", h.N())
	}
	if h.bins[3] != 1 || h.overflow != 5 { // 10..14 overflow
		t.Errorf("bin 3 = %d, overflow = %d, want 1 and 5", h.bins[3], h.overflow)
	}
	if got := h.Mean(); !almostEq(got, 7, 1e-12) {
		t.Errorf("Mean = %v, want 7", got)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram(4)
	h.Add(-3)
	if h.bins[0] != 1 {
		t.Errorf("negative value should clamp to bin 0")
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(100)
	for v := 1; v <= 100; v++ {
		h.Add(v - 1)
	}
	if p := h.Percentile(0.5); p != 49 {
		t.Errorf("P50 = %d, want 49", p)
	}
	if p := h.Percentile(0.99); p != 98 {
		t.Errorf("P99 = %d, want 98", p)
	}
	if p := h.Percentile(1.0); p != 99 {
		t.Errorf("P100 = %d, want 99", p)
	}
}

func TestHistogramPercentileEmpty(t *testing.T) {
	h := NewHistogram(4)
	if h.Percentile(0.5) != 0 {
		t.Errorf("empty percentile should be 0")
	}
	if h.Percentile(0.99) != 0 || h.Percentile(1) != 0 {
		t.Errorf("empty histogram should report 0 for every percentile")
	}
}

// TestHistogramPercentileSingleBucket: with every observation in one
// bin, every percentile must land on that bin.
func TestHistogramPercentileSingleBucket(t *testing.T) {
	h := NewHistogram(1)
	h.Add(0)
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1} {
		if p := h.Percentile(q); p != 0 {
			t.Errorf("Percentile(%v) = %d, want 0", q, p)
		}
	}
}

// TestHistogramPercentileAllEqual: identical samples collapse every
// percentile onto the common value.
func TestHistogramPercentileAllEqual(t *testing.T) {
	h := NewHistogram(64)
	for i := 0; i < 1000; i++ {
		h.Add(17)
	}
	for _, q := range []float64{0.001, 0.5, 0.95, 0.99, 1} {
		if p := h.Percentile(q); p != 17 {
			t.Errorf("Percentile(%v) = %d, want 17", q, p)
		}
	}
	if h.Mean() != 17 {
		t.Errorf("Mean = %v, want 17", h.Mean())
	}
}

// TestHistogramPercentileAllOverflow: observations past the last bin
// report len(bins) (the "last bin + 1" overflow convention).
func TestHistogramPercentileAllOverflow(t *testing.T) {
	h := NewHistogram(4)
	h.Add(100)
	h.Add(200)
	if p := h.Percentile(0.5); p != 4 {
		t.Errorf("overflow P50 = %d, want 4", p)
	}
	if p := h.Percentile(1); p != 4 {
		t.Errorf("overflow P100 = %d, want 4", p)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Errorf("Ratio(6,3) != 2")
	}
	if Ratio(1, 0) != 0 {
		t.Errorf("Ratio(_,0) should be 0")
	}
}
