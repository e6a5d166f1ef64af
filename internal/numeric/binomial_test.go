package numeric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBinomialPMFKnown(t *testing.T) {
	tests := []struct {
		n, k int
		p    float64
		want float64
	}{
		{1, 0, 0.5, 0.5},
		{1, 1, 0.5, 0.5},
		{2, 1, 0.5, 0.5},
		{4, 2, 0.5, 0.375},
		{10, 0, 0.1, math.Pow(0.9, 10)},
		{10, 10, 0.1, math.Pow(0.1, 10)},
		{3, 1, 0.25, 3 * 0.25 * 0.75 * 0.75},
	}
	for _, tt := range tests {
		got := BinomialPMF(tt.n, tt.k, tt.p)
		if !AlmostEqual(got, tt.want, 1e-14, 1e-12) {
			t.Errorf("BinomialPMF(%d,%d,%v) = %v, want %v", tt.n, tt.k, tt.p, got, tt.want)
		}
	}
}

func TestBinomialPMFBoundaryP(t *testing.T) {
	if got := BinomialPMF(5, 0, 0); got != 1 {
		t.Errorf("p=0, k=0: got %v, want 1", got)
	}
	if got := BinomialPMF(5, 1, 0); got != 0 {
		t.Errorf("p=0, k=1: got %v, want 0", got)
	}
	if got := BinomialPMF(5, 5, 1); got != 1 {
		t.Errorf("p=1, k=n: got %v, want 1", got)
	}
	if got := BinomialPMF(5, 4, 1); got != 0 {
		t.Errorf("p=1, k<n: got %v, want 0", got)
	}
	if got := BinomialPMF(5, 6, 0.5); got != 0 {
		t.Errorf("k>n: got %v, want 0", got)
	}
	if got := BinomialPMF(-1, 0, 0.5); got != 0 {
		t.Errorf("n<0: got %v, want 0", got)
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, n := range []int{1, 5, 50, 400} {
		for _, p := range []float64{0.001, 0.1, 0.5, 0.9, 0.999} {
			var sum Kahan
			for k := 0; k <= n; k++ {
				sum.Add(BinomialPMF(n, k, p))
			}
			if !AlmostEqual(sum.Sum(), 1, 1e-10, 1e-10) {
				t.Errorf("n=%d p=%v: PMF sums to %v", n, p, sum.Sum())
			}
		}
	}
}

func TestBinomialCDFTailComplement(t *testing.T) {
	f := func(n8 uint8, k8 uint8, pRaw float64) bool {
		n := 1 + int(n8%200)
		k := int(k8) % (n + 2)
		p := math.Abs(math.Mod(pRaw, 1))
		cdf := BinomialCDF(n, k-1, p)
		tail := BinomialTail(n, k, p)
		return AlmostEqual(cdf+tail, 1, 1e-9, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBinomialCDFEdges(t *testing.T) {
	if got := BinomialCDF(10, -1, 0.5); got != 0 {
		t.Errorf("CDF(k=-1) = %v, want 0", got)
	}
	if got := BinomialCDF(10, 10, 0.5); got != 1 {
		t.Errorf("CDF(k=n) = %v, want 1", got)
	}
	if got := BinomialTail(10, 0, 0.5); got != 1 {
		t.Errorf("Tail(k=0) = %v, want 1", got)
	}
	if got := BinomialTail(10, 11, 0.5); got != 0 {
		t.Errorf("Tail(k>n) = %v, want 0", got)
	}
}

func TestBinomialTailMonotoneInK(t *testing.T) {
	n, p := 100, 0.3
	prev := 1.0
	for k := 0; k <= n+1; k++ {
		cur := BinomialTail(n, k, p)
		if cur > prev+1e-12 {
			t.Fatalf("tail increased at k=%d: %v > %v", k, cur, prev)
		}
		prev = cur
	}
}

func TestBinomialMoments(t *testing.T) {
	if got := BinomialMean(40, 0.25); got != 10 {
		t.Errorf("mean = %v, want 10", got)
	}
	if got := BinomialVariance(40, 0.25); !AlmostEqual(got, 7.5, 1e-12, 1e-12) {
		t.Errorf("variance = %v, want 7.5", got)
	}
}

func TestKahanBeatsNaiveSum(t *testing.T) {
	// Summing 1 followed by many tiny values: naive summation drops them.
	var k Kahan
	k.Add(1)
	const tiny = 1e-16
	const reps = 1_000_000
	for i := 0; i < reps; i++ {
		k.Add(tiny)
	}
	want := 1 + tiny*reps
	if !AlmostEqual(k.Sum(), want, 1e-12, 1e-12) {
		t.Errorf("Kahan sum = %.17g, want %.17g", k.Sum(), want)
	}
}

func TestKahanReset(t *testing.T) {
	var k Kahan
	k.Add(5)
	k.Reset()
	if k.Sum() != 0 {
		t.Errorf("after Reset sum = %v, want 0", k.Sum())
	}
}

func TestSumSlice(t *testing.T) {
	if got := SumSlice([]float64{1, 2, 3, 4}); got != 10 {
		t.Errorf("SumSlice = %v, want 10", got)
	}
	if got := SumSlice(nil); got != 0 {
		t.Errorf("SumSlice(nil) = %v, want 0", got)
	}
}
