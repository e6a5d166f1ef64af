package numeric

import (
	"math"
)

// BinomialLogPMF returns ln(P[X = k]) for X ~ Binomial(n, p).
// It handles the boundary probabilities p = 0 and p = 1 exactly.
func BinomialLogPMF(n, k int, p float64) float64 {
	if n < 0 || k < 0 || k > n {
		return math.Inf(-1)
	}
	switch {
	case p <= 0:
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	case p >= 1:
		if k == n {
			return 0
		}
		return math.Inf(-1)
	}
	return LogChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
}

// BinomialPMF returns P[X = k] for X ~ Binomial(n, p).
func BinomialPMF(n, k int, p float64) float64 {
	return math.Exp(BinomialLogPMF(n, k, p))
}

// BinomialCDF returns P[X <= k] for X ~ Binomial(n, p), summing the PMF with
// compensated accumulation. For k >= n it returns exactly 1.
func BinomialCDF(n, k int, p float64) float64 {
	if k < 0 {
		return 0
	}
	if k >= n {
		return 1
	}
	var sum Kahan
	for i := 0; i <= k; i++ {
		sum.Add(BinomialPMF(n, i, p))
	}
	return Clamp01(sum.Sum())
}

// BinomialTail returns P[X >= k] for X ~ Binomial(n, p). For numerical
// stability it sums whichever side of the distribution has fewer terms.
func BinomialTail(n, k int, p float64) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	if k > n/2 {
		var sum Kahan
		for i := k; i <= n; i++ {
			sum.Add(BinomialPMF(n, i, p))
		}
		return Clamp01(sum.Sum())
	}
	return Clamp01(1 - BinomialCDF(n, k-1, p))
}

// BinomialMean returns the mean n*p of Binomial(n, p).
func BinomialMean(n int, p float64) float64 { return float64(n) * p }

// BinomialVariance returns the variance n*p*(1-p) of Binomial(n, p).
func BinomialVariance(n int, p float64) float64 { return float64(n) * p * (1 - p) }
