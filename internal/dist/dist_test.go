package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/groupdetect/gbd/internal/numeric"
)

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New([]float64{0.5, -0.1}); err == nil {
		t.Error("negative mass should be rejected")
	}
	if _, err := New([]float64{math.NaN()}); err == nil {
		t.Error("NaN mass should be rejected")
	}
	p, err := New([]float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if p.Total() != 1 {
		t.Errorf("Total = %v, want 1", p.Total())
	}
}

func TestNewCopies(t *testing.T) {
	src := []float64{0.5, 0.5}
	p, err := New(src)
	if err != nil {
		t.Fatal(err)
	}
	src[0] = 99
	if p[0] != 0.5 {
		t.Error("New must copy its input")
	}
}

func TestPoint(t *testing.T) {
	p := Point(2, 5)
	if len(p) != 5 || p[2] != 1 || p.Total() != 1 {
		t.Errorf("Point(2,5) = %v", p)
	}
	if got := Point(-1, 3).Total(); got != 0 {
		t.Errorf("out-of-range point mass: total %v, want 0", got)
	}
	if got := Point(7, 3).Total(); got != 0 {
		t.Errorf("k >= size point mass: total %v, want 0", got)
	}
}

func TestBinomialPMFMatchesNumeric(t *testing.T) {
	p := Binomial(10, 0.3)
	for k := 0; k <= 10; k++ {
		want := numeric.BinomialPMF(10, k, 0.3)
		if p[k] != want {
			t.Errorf("Binomial[%d] = %v, want %v", k, p[k], want)
		}
	}
	if !numeric.AlmostEqual(p.Total(), 1, 1e-12, 1e-12) {
		t.Errorf("Binomial total = %v", p.Total())
	}
}

func TestTailCDFComplement(t *testing.T) {
	p := Binomial(20, 0.4)
	for k := 0; k <= 21; k++ {
		got := p.CDF(k-1) + p.Tail(k)
		if !numeric.AlmostEqual(got, 1, 1e-12, 1e-12) {
			t.Errorf("CDF(%d)+Tail(%d) = %v, want 1", k-1, k, got)
		}
	}
}

func TestTailNegativeK(t *testing.T) {
	p := Binomial(5, 0.5)
	if got := p.Tail(-3); !numeric.AlmostEqual(got, 1, 1e-12, 1e-12) {
		t.Errorf("Tail(-3) = %v, want 1", got)
	}
}

func TestMeanVarianceBinomial(t *testing.T) {
	p := Binomial(30, 0.2)
	if !numeric.AlmostEqual(p.Mean(), 6, 1e-9, 1e-9) {
		t.Errorf("mean = %v, want 6", p.Mean())
	}
	if !numeric.AlmostEqual(p.Variance(), 4.8, 1e-9, 1e-9) {
		t.Errorf("variance = %v, want 4.8", p.Variance())
	}
}

func TestNormalized(t *testing.T) {
	p := PMF{0.2, 0.2}
	q := p.Normalized()
	if !numeric.AlmostEqual(q.Total(), 1, 1e-12, 1e-12) {
		t.Errorf("normalized total = %v", q.Total())
	}
	if q[0] != 0.5 {
		t.Errorf("normalized[0] = %v, want 0.5", q[0])
	}
	zero := PMF{0, 0}.Normalized()
	if zero.Total() != 0 {
		t.Error("normalizing zero mass should stay zero")
	}
}

func TestTruncateSaturate(t *testing.T) {
	p := PMF{0.1, 0.2, 0.3, 0.4}
	sat := p.Truncate(2, true)
	if len(sat) != 2 {
		t.Fatalf("len = %d, want 2", len(sat))
	}
	if !numeric.AlmostEqual(sat[1], 0.2+0.3+0.4, 1e-12, 1e-12) {
		t.Errorf("saturated mass = %v, want 0.9", sat[1])
	}
	drop := p.Truncate(2, false)
	if !numeric.AlmostEqual(drop.Total(), 0.3, 1e-12, 1e-12) {
		t.Errorf("dropped total = %v, want 0.3", drop.Total())
	}
	if got := p.Truncate(0, true); len(got) != 0 {
		t.Error("Truncate(0) should be empty")
	}
}

func TestConvolveDice(t *testing.T) {
	die := PMF{0, 1.0 / 6, 1.0 / 6, 1.0 / 6, 1.0 / 6, 1.0 / 6, 1.0 / 6}
	two := Convolve(die, die)
	// P[sum=7] = 6/36.
	if !numeric.AlmostEqual(two[7], 6.0/36, 1e-12, 1e-12) {
		t.Errorf("P[7] = %v, want 1/6", two[7])
	}
	if !numeric.AlmostEqual(two.Total(), 1, 1e-12, 1e-12) {
		t.Errorf("total = %v", two.Total())
	}
	if len(two) != 13 {
		t.Errorf("support size = %d, want 13", len(two))
	}
}

func TestConvolveIdentity(t *testing.T) {
	p := Binomial(7, 0.3)
	id := Point(0, 1)
	got := Convolve(p, id)
	if MaxAbsDiff(got, p) > 1e-15 {
		t.Errorf("convolving with identity changed the PMF: %v", got)
	}
	if len(Convolve(p, PMF{})) != 0 {
		t.Error("convolving with empty support should be empty")
	}
}

func TestConvolveBinomialClosure(t *testing.T) {
	// Binomial(n1,p) * Binomial(n2,p) = Binomial(n1+n2,p).
	got := Convolve(Binomial(6, 0.35), Binomial(9, 0.35))
	want := Binomial(15, 0.35)
	if d := MaxAbsDiff(got, want); d > 1e-12 {
		t.Errorf("binomial closure violated, max diff %v", d)
	}
}

func TestConvolvePowerMatchesRepeated(t *testing.T) {
	p := PMF{0.5, 0.3, 0.2}
	want := Point(0, 1)
	for i := 0; i < 5; i++ {
		want = Convolve(want, p)
	}
	got := ConvolvePower(p, 5)
	if d := MaxAbsDiff(got, want); d > 1e-12 {
		t.Errorf("ConvolvePower(5) differs from repeated convolution by %v", d)
	}
	if got := ConvolvePower(p, 0); len(got) != 1 || got[0] != 1 {
		t.Errorf("ConvolvePower(0) = %v, want identity", got)
	}
}

func TestConvolveAll(t *testing.T) {
	ps := []PMF{Binomial(2, 0.5), Binomial(3, 0.5), Binomial(5, 0.5)}
	got := ConvolveAll(ps)
	want := Binomial(10, 0.5)
	if d := MaxAbsDiff(got, want); d > 1e-12 {
		t.Errorf("ConvolveAll differs by %v", d)
	}
	if got := ConvolveAll(nil); len(got) != 1 || got[0] != 1 {
		t.Errorf("ConvolveAll(nil) = %v, want identity", got)
	}
}

func TestConvolutionProperties(t *testing.T) {
	gen := func(r *rand.Rand, n int) PMF {
		p := make(PMF, n)
		for i := range p {
			p[i] = r.Float64()
		}
		return p.Normalized()
	}
	r := rand.New(rand.NewSource(42))
	f := func(a8, b8 uint8) bool {
		p := gen(r, 1+int(a8%8))
		q := gen(r, 1+int(b8%8))
		pq := Convolve(p, q)
		qp := Convolve(q, p)
		// Commutativity.
		if MaxAbsDiff(pq, qp) > 1e-12 {
			return false
		}
		// Mass multiplies.
		if !numeric.AlmostEqual(pq.Total(), p.Total()*q.Total(), 1e-10, 1e-10) {
			return false
		}
		// Mean adds (for normalized inputs).
		return numeric.AlmostEqual(pq.Mean(), p.Mean()+q.Mean(), 1e-9, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestVarianceAddsUnderConvolution(t *testing.T) {
	p := Binomial(12, 0.25)
	q := Binomial(20, 0.7)
	got := Convolve(p, q).Variance()
	want := p.Variance() + q.Variance()
	if !numeric.AlmostEqual(got, want, 1e-9, 1e-9) {
		t.Errorf("variance = %v, want %v", got, want)
	}
}

func TestCloneIndependent(t *testing.T) {
	p := PMF{0.5, 0.5}
	q := p.Clone()
	q[0] = 0
	if p[0] != 0.5 {
		t.Error("Clone must be independent")
	}
}

func TestMaxAbsDiffLengths(t *testing.T) {
	if d := MaxAbsDiff(PMF{0.5}, PMF{0.5, 0.25}); d != 0.25 {
		t.Errorf("MaxAbsDiff = %v, want 0.25", d)
	}
	if d := MaxAbsDiff(nil, nil); d != 0 {
		t.Errorf("MaxAbsDiff(nil,nil) = %v, want 0", d)
	}
}

func TestQuantile(t *testing.T) {
	p := Binomial(10, 0.5)
	med, err := p.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if med != 5 {
		t.Errorf("median = %d, want 5", med)
	}
	if k, err := p.Quantile(1); err != nil || k != 10 {
		t.Errorf("q=1 quantile = %d, %v", k, err)
	}
	if _, err := p.Quantile(0); err == nil {
		t.Error("q=0 should fail")
	}
	if _, err := (PMF{0, 0}).Quantile(0.5); err == nil {
		t.Error("zero mass should fail")
	}
	// Sub-stochastic: quantile of the normalized distribution.
	sub := PMF{0.25, 0.25} // mass 0.5
	if k, err := sub.Quantile(0.5); err != nil || k != 0 {
		t.Errorf("sub-stochastic quantile = %d, %v", k, err)
	}
}
