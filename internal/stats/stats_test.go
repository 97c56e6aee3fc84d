package stats

import (
	"math"
	"math/rand"
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
	if m.Mean() != 0 || m.Variance() != 0 || m.StdErr() != 0 {
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

func TestMeanAddN(t *testing.T) {
	var a, b Mean
	a.AddN(4, 3)
	for i := 0; i < 3; i++ {
		b.Add(4)
	}
	if a.N() != b.N() || a.Mean() != b.Mean() {
		t.Errorf("AddN mismatch: %v vs %v", a.String(), b.String())
	}
}

// TestMeanAddNEquivalence asserts the O(1) batched AddN matches n
// repeated Add calls — exactly from an empty accumulator, and to
// floating-point tolerance when batching on top of prior observations
// (the two orderings round differently but describe the same sample).
func TestMeanAddNEquivalence(t *testing.T) {
	// From empty: bit-identical (Merge into empty copies the batch).
	var batched, iterated Mean
	batched.AddN(2.5, 1000)
	for i := 0; i < 1000; i++ {
		iterated.Add(2.5)
	}
	if batched != iterated {
		t.Errorf("AddN from empty not bit-identical: %v vs %v", batched.String(), iterated.String())
	}

	// Mid-stream, with surrounding observations and several batches.
	rng := rand.New(rand.NewSource(7))
	var a, b Mean
	for step := 0; step < 50; step++ {
		x := rng.NormFloat64()*5 + 1
		n := int64(rng.Intn(200) + 1)
		a.AddN(x, n)
		for i := int64(0); i < n; i++ {
			b.Add(x)
		}
		y := rng.NormFloat64()
		a.Add(y)
		b.Add(y)
	}
	if a.N() != b.N() || a.Min() != b.Min() || a.Max() != b.Max() {
		t.Fatalf("AddN count/extrema mismatch: %v vs %v", a.String(), b.String())
	}
	if !almostEq(a.Mean(), b.Mean(), 1e-9*(1+math.Abs(b.Mean()))) {
		t.Errorf("AddN mean = %v, want %v", a.Mean(), b.Mean())
	}
	if !almostEq(a.Variance(), b.Variance(), 1e-6*(1+b.Variance())) {
		t.Errorf("AddN variance = %v, want %v", a.Variance(), b.Variance())
	}
}

// TestMeanAddNNonPositive verifies n <= 0 is a no-op.
func TestMeanAddNNonPositive(t *testing.T) {
	var m Mean
	m.Add(1)
	m.AddN(99, 0)
	m.AddN(99, -5)
	if m.N() != 1 || m.Max() != 1 {
		t.Errorf("AddN with n <= 0 changed state: %v", m.String())
	}
}

func TestMeanMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var all, left, right Mean
	for i := 0; i < 1000; i++ {
		v := rng.NormFloat64()*10 + 3
		all.Add(v)
		if i%2 == 0 {
			left.Add(v)
		} else {
			right.Add(v)
		}
	}
	left.Merge(&right)
	if left.N() != all.N() {
		t.Fatalf("merged N = %d, want %d", left.N(), all.N())
	}
	if !almostEq(left.Mean(), all.Mean(), 1e-9) {
		t.Errorf("merged mean = %v, want %v", left.Mean(), all.Mean())
	}
	if !almostEq(left.Variance(), all.Variance(), 1e-6) {
		t.Errorf("merged variance = %v, want %v", left.Variance(), all.Variance())
	}
	if left.Min() != all.Min() || left.Max() != all.Max() {
		t.Errorf("merged min/max mismatch")
	}
}

func TestMeanMergeEmpty(t *testing.T) {
	var a, b Mean
	a.Add(2)
	a.Merge(&b) // merging empty is a no-op
	if a.N() != 1 || a.Mean() != 2 {
		t.Errorf("merge with empty changed state: %v", a.String())
	}
	b.Merge(&a) // merging into empty copies
	if b.N() != 1 || b.Mean() != 2 {
		t.Errorf("merge into empty failed: %v", b.String())
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

// Property: merging is equivalent to sequential adds.
func TestMeanMergeProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		clean := func(xs []float64) []float64 {
			out := xs[:0:0]
			for _, x := range xs {
				if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
					out = append(out, x)
				}
			}
			return out
		}
		a, b = clean(a), clean(b)
		var seq, ma, mb Mean
		for _, x := range a {
			seq.Add(x)
			ma.Add(x)
		}
		for _, x := range b {
			seq.Add(x)
			mb.Add(x)
		}
		ma.Merge(&mb)
		if ma.N() != seq.N() {
			return false
		}
		if seq.N() == 0 {
			return true
		}
		scale := 1 + math.Abs(seq.Mean())
		return almostEq(ma.Mean(), seq.Mean(), 1e-6*scale)
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

func TestSeriesWindows(t *testing.T) {
	s := Series{Window: 10}
	for c := int64(0); c < 35; c++ {
		s.Observe(c, float64(c/10))
	}
	pts := s.Points()
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3 completed windows", len(pts))
	}
	for i, p := range pts {
		if !almostEq(p, float64(i), 1e-12) {
			t.Errorf("window %d mean = %v, want %d", i, p, i)
		}
	}
	if !almostEq(s.Last(), 2, 1e-12) {
		t.Errorf("Last = %v, want 2", s.Last())
	}
}

func TestSeriesGap(t *testing.T) {
	s := Series{Window: 10}
	s.Observe(0, 1)
	s.Observe(45, 5) // skips windows 1..3
	pts := s.Points()
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4", len(pts))
	}
	if pts[0] != 1 {
		t.Errorf("first window = %v, want 1", pts[0])
	}
	if pts[1] != 0 || pts[2] != 0 {
		t.Errorf("gap windows should have zero mean: %v", pts)
	}
}

func TestSeriesDefaultWindow(t *testing.T) {
	var s Series
	s.Observe(0, 1)
	s.Observe(1500, 2)
	if len(s.Points()) != 1 {
		t.Errorf("default window should be 1000 cycles: %d points", len(s.Points()))
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v, want 2", m)
	}
	if m := Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	if m := Median(nil); m != 0 {
		t.Errorf("empty median = %v, want 0", m)
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
