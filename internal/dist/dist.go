// Package dist implements finite discrete probability distributions over
// the non-negative integers {0, 1, ..., n}.
//
// The M-S-approach assembles the distribution of total detection reports by
// chaining per-period report distributions through a Markov chain whose
// transition matrices are shift kernels. Multiplying a probability vector by
// such a kernel is exactly a convolution, so this package is the optimized
// evaluation path for Eq. (12) of the paper (the matrix path lives in
// internal/markov and is cross-checked against this one in tests).
package dist

import (
	"errors"
	"fmt"
	"math"

	"github.com/groupdetect/gbd/internal/numeric"
)

// ErrInvalid reports a malformed distribution (negative mass or NaN).
var ErrInvalid = errors.New("dist: invalid distribution")

// PMF is a probability mass function on {0, ..., len(p)-1}. PMFs produced by
// the truncated analysis are sub-stochastic (they sum to slightly less than
// one because only a bounded number of sensors per region is enumerated), so
// a PMF is not required to sum to 1; see Total and Normalized.
type PMF []float64

// New returns a PMF with the given probabilities, copying the slice.
// It returns an error if any entry is negative or NaN.
func New(p []float64) (PMF, error) {
	for i, v := range p {
		if v < 0 || math.IsNaN(v) {
			return nil, fmt.Errorf("entry %d = %v: %w", i, v, ErrInvalid)
		}
	}
	out := make(PMF, len(p))
	copy(out, p)
	return out, nil
}

// Point returns the degenerate distribution concentrated at value k with the
// given support size (k must be < size).
func Point(k, size int) PMF {
	p := make(PMF, size)
	if k >= 0 && k < size {
		p[k] = 1
	}
	return p
}

// Binomial returns the PMF of Binomial(n, prob) on {0..n}.
func Binomial(n int, prob float64) PMF {
	p := make(PMF, n+1)
	for k := 0; k <= n; k++ {
		p[k] = numeric.BinomialPMF(n, k, prob)
	}
	return p
}

// Clone returns an independent copy of p.
func (p PMF) Clone() PMF {
	out := make(PMF, len(p))
	copy(out, p)
	return out
}

// Total returns the total probability mass of p.
func (p PMF) Total() float64 {
	return numeric.SumSlice(p)
}

// Normalized returns a copy of p scaled so that it sums to 1. Normalizing a
// zero distribution returns a zero distribution of the same length.
func (p PMF) Normalized() PMF {
	total := p.Total()
	out := make(PMF, len(p))
	if total <= 0 {
		return out
	}
	for i, v := range p {
		out[i] = v / total
	}
	return out
}

// Tail returns P[X >= k] under p (without normalizing).
func (p PMF) Tail(k int) float64 {
	if k < 0 {
		k = 0
	}
	var sum numeric.Kahan
	for i := k; i < len(p); i++ {
		sum.Add(p[i])
	}
	return sum.Sum()
}

// CDF returns P[X <= k] under p (without normalizing).
func (p PMF) CDF(k int) float64 {
	if k < 0 {
		return 0
	}
	if k >= len(p)-1 {
		return p.Total()
	}
	var sum numeric.Kahan
	for i := 0; i <= k; i++ {
		sum.Add(p[i])
	}
	return sum.Sum()
}

// Mean returns the first moment of p. Sub-stochastic mass is used as-is;
// normalize first if a conditional mean is wanted.
func (p PMF) Mean() float64 {
	var sum numeric.Kahan
	for i, v := range p {
		sum.Add(float64(i) * v)
	}
	return sum.Sum()
}

// Variance returns the second central moment of p assuming p is normalized.
func (p PMF) Variance() float64 {
	mean := p.Mean()
	var sum numeric.Kahan
	for i, v := range p {
		d := float64(i) - mean
		sum.Add(d * d * v)
	}
	return sum.Sum()
}

// Truncate returns a copy of p limited to support {0..size-1}. Mass beyond
// the cut is accumulated into the final state when saturate is true
// (matching the paper's merged "k or more" Markov state) and dropped
// otherwise.
func (p PMF) Truncate(size int, saturate bool) PMF {
	if size <= 0 {
		return PMF{}
	}
	out := make(PMF, size)
	n := copy(out, p)
	_ = n
	if saturate {
		var overflow numeric.Kahan
		for i := size; i < len(p); i++ {
			overflow.Add(p[i])
		}
		out[size-1] += overflow.Sum()
	}
	return out
}

// Convolve returns the distribution of X + Y for independent X ~ p, Y ~ q.
// The result has support {0 .. len(p)+len(q)-2}.
func Convolve(p, q PMF) PMF {
	if len(p) == 0 || len(q) == 0 {
		return PMF{}
	}
	out := make(PMF, len(p)+len(q)-1)
	for i, pi := range p {
		if pi == 0 {
			continue
		}
		for j, qj := range q {
			out[i+j] += pi * qj
		}
	}
	return out
}

// ConvolveInto computes Convolve(p, q) into dst, reusing dst's backing
// array when it is large enough, and returns the (possibly regrown) result.
// dst must not overlap p or q. Leading and trailing zero entries of p are
// skipped outright — worthwhile for the analysis' sub-stochastic stage
// PMFs, whose support is often much narrower than their storage. The
// result is element-for-element identical to Convolve's: skipped terms
// only ever contribute exact zeros.
func ConvolveInto(dst, p, q PMF) PMF {
	if len(p) == 0 || len(q) == 0 {
		return dst[:0]
	}
	n := len(p) + len(q) - 1
	if cap(dst) < n {
		dst = make(PMF, n)
	} else {
		dst = dst[:n]
		for i := range dst {
			dst[i] = 0
		}
	}
	lo, hi := 0, len(p)
	for lo < hi && p[lo] == 0 {
		lo++
	}
	for hi > lo && p[hi-1] == 0 {
		hi--
	}
	for i := lo; i < hi; i++ {
		pi := p[i]
		if pi == 0 {
			continue
		}
		for j, qj := range q {
			dst[i+j] += pi * qj
		}
	}
	return dst
}

// ConvolvePower returns the n-fold convolution p * p * ... * p using binary
// exponentiation. n = 0 yields the identity (point mass at 0).
func ConvolvePower(p PMF, n int) PMF {
	result := Point(0, 1)
	base := p.Clone()
	for n > 0 {
		if n&1 == 1 {
			result = Convolve(result, base)
		}
		n >>= 1
		if n > 0 {
			base = Convolve(base, base)
		}
	}
	return result
}

// ConvolveAll convolves every distribution in ps together. An empty input
// yields the identity.
func ConvolveAll(ps []PMF) PMF {
	result := Point(0, 1)
	for _, p := range ps {
		result = Convolve(result, p)
	}
	return result
}

// MaxAbsDiff returns the largest absolute pointwise difference between p and
// q, treating missing entries as zero.
func MaxAbsDiff(p, q PMF) float64 {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	var maxd float64
	for i := 0; i < n; i++ {
		var a, b float64
		if i < len(p) {
			a = p[i]
		}
		if i < len(q) {
			b = q[i]
		}
		if d := math.Abs(a - b); d > maxd {
			maxd = d
		}
	}
	return maxd
}

// Quantile returns the smallest k with CDF(k) >= q under the normalized
// distribution, or an error for q outside (0, 1] or zero-mass p.
func (p PMF) Quantile(q float64) (int, error) {
	if q <= 0 || q > 1 {
		return 0, fmt.Errorf("quantile %v: %w", q, ErrInvalid)
	}
	total := p.Total()
	if total <= 0 {
		return 0, fmt.Errorf("quantile of zero-mass distribution: %w", ErrInvalid)
	}
	var cum numeric.Kahan
	for k, v := range p {
		cum.Add(v)
		if cum.Sum() >= q*total {
			return k, nil
		}
	}
	return len(p) - 1, nil
}
