package stats

import (
	"math"
	"testing"

	"github.com/groupdetect/gbd/internal/numeric"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); !numeric.AlmostEqual(got, 32.0/7, 1e-12, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7)
	}
	if got := StdDev(xs); !numeric.AlmostEqual(got, math.Sqrt(32.0/7), 1e-12, 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestWilsonInterval(t *testing.T) {
	iv, err := WilsonInterval(50, 100, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Contains(0.5) {
		t.Errorf("interval %+v should contain 0.5", iv)
	}
	if iv.Width() <= 0 || iv.Width() > 0.25 {
		t.Errorf("width = %v implausible", iv.Width())
	}
	// Extreme proportions stay in [0, 1].
	iv, err = WilsonInterval(0, 100, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo < 0 || iv.Hi > 0.1 {
		t.Errorf("zero-successes interval = %+v", iv)
	}
	iv, err = WilsonInterval(100, 100, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Hi > 1 || iv.Lo < 0.9 {
		t.Errorf("all-successes interval = %+v", iv)
	}
	// Narrower with more trials.
	small, _ := WilsonInterval(50, 100, 1.96)
	large, _ := WilsonInterval(5000, 10000, 1.96)
	if large.Width() >= small.Width() {
		t.Error("more trials should narrow the interval")
	}
}

func TestWilsonIntervalValidation(t *testing.T) {
	if _, err := WilsonInterval(1, 0, 1.96); err == nil {
		t.Error("zero trials should fail")
	}
	if _, err := WilsonInterval(-1, 10, 1.96); err == nil {
		t.Error("negative successes should fail")
	}
	if _, err := WilsonInterval(11, 10, 1.96); err == nil {
		t.Error("successes > trials should fail")
	}
	if _, err := WilsonInterval(5, 10, 0); err == nil {
		t.Error("z = 0 should fail")
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int{0, 1, 1, 3, 3, 3} {
		if err := h.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if h.Total() != 6 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.Count(1) != 2 || h.Count(3) != 3 || h.Count(2) != 0 || h.Count(99) != 0 || h.Count(-1) != 0 {
		t.Error("counts wrong")
	}
	if h.Max() != 3 {
		t.Errorf("Max = %d", h.Max())
	}
	if got := h.Mean(); !numeric.AlmostEqual(got, (0+2+9)/6.0, 1e-12, 1e-12) {
		t.Errorf("Mean = %v", got)
	}
	if got := h.TailProb(3); got != 0.5 {
		t.Errorf("TailProb(3) = %v", got)
	}
	if got := h.TailProb(-1); got != 1 {
		t.Errorf("TailProb(-1) = %v", got)
	}
	pmf := h.PMF()
	if !numeric.AlmostEqual(numeric.SumSlice(pmf), 1, 1e-12, 1e-12) {
		t.Errorf("PMF total = %v", numeric.SumSlice(pmf))
	}
	if err := h.Add(-1); err == nil {
		t.Error("negative value should fail")
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Max() != -1 || h.PMF() != nil || h.Mean() != 0 || h.TailProb(0) != 0 {
		t.Error("empty histogram edge cases wrong")
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	_ = a.Add(1)
	_ = a.Add(2)
	_ = b.Add(2)
	_ = b.Add(5)
	a.Merge(&b)
	if a.Total() != 4 || a.Count(2) != 2 || a.Count(5) != 1 {
		t.Errorf("merged histogram wrong: total=%d", a.Total())
	}
	var empty Histogram
	a.Merge(&empty)
	if a.Total() != 4 {
		t.Error("merging empty changed totals")
	}
}
