// Package markov implements discrete-time Markov chains over a finite
// integer state space. It provides the paper-faithful evaluation path for
// the M-S-approach (Section 3.4): the Head, Body and Tail stages each define
// a transition matrix whose rows shift probability mass upward by the number
// of detection reports generated in that stage's NEDR, and Eq. (12)
// multiplies the initial vector through all of them.
package markov

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"github.com/groupdetect/gbd/internal/matrix"
	"github.com/groupdetect/gbd/internal/numeric"
)

// ErrChain reports a malformed chain or distribution.
var ErrChain = errors.New("markov: invalid chain")

// Chain is a discrete-time Markov chain with states 0..n-1. The transition
// matrix may be sub-stochastic: the truncated analysis deliberately drops
// the probability mass of configurations with more than g sensors per
// region, and Eq. (13) renormalizes at the end.
type Chain struct {
	t *matrix.Matrix
}

// New builds a chain from a square transition matrix whose entries are
// non-negative and whose rows sum to at most 1 (within tol).
func New(t *matrix.Matrix, tol float64) (*Chain, error) {
	if t.Rows() != t.Cols() {
		return nil, fmt.Errorf("transition matrix %dx%d not square: %w", t.Rows(), t.Cols(), ErrChain)
	}
	for i := 0; i < t.Rows(); i++ {
		var sum float64
		for _, v := range t.Row(i) {
			if v < -tol || math.IsNaN(v) {
				return nil, fmt.Errorf("row %d has invalid entry %v: %w", i, v, ErrChain)
			}
			sum += v
		}
		if sum > 1+tol {
			return nil, fmt.Errorf("row %d sums to %v > 1: %w", i, sum, ErrChain)
		}
	}
	return &Chain{t: t.Clone()}, nil
}

// ShiftKernel builds the transition matrix used by every stage of the
// M-S-approach: from state s (s reports so far), move to state s+m with
// probability inc[m]. size is the number of states (the paper uses MZ+1).
//
// When saturate is true, mass that would move past the last state
// accumulates in it — this implements the paper's merged "state k..MZ" when
// only the tail probability matters. When false, such mass is dropped
// (used to detect sizing bugs in tests; the analysis always saturates or
// sizes the space so no overflow occurs).
func ShiftKernel(inc []float64, size int, saturate bool) (*Chain, error) {
	if size <= 0 {
		return nil, fmt.Errorf("kernel size %d: %w", size, ErrChain)
	}
	var total numeric.Kahan
	for m, p := range inc {
		if p < 0 || math.IsNaN(p) {
			return nil, fmt.Errorf("increment %d has invalid probability %v: %w", m, p, ErrChain)
		}
		total.Add(p)
	}
	if total.Sum() > 1+1e-9 {
		return nil, fmt.Errorf("increments sum to %v > 1: %w", total.Sum(), ErrChain)
	}
	t, err := matrix.New(size, size)
	if err != nil {
		return nil, err
	}
	for s := 0; s < size; s++ {
		row := t.Row(s)
		for m, p := range inc {
			if p == 0 {
				continue
			}
			j := s + m
			if j >= size {
				if saturate {
					row[size-1] += p
				}
				continue
			}
			row[j] += p
		}
	}
	return &Chain{t: t}, nil
}

// States returns the number of states.
func (c *Chain) States() int { return c.t.Rows() }

// Matrix returns a copy of the transition matrix.
func (c *Chain) Matrix() *matrix.Matrix { return c.t.Clone() }

// Step returns the distribution after one transition from v.
func (c *Chain) Step(v []float64) ([]float64, error) {
	return matrix.VecMul(v, c.t)
}

// Evolve returns the distribution after n transitions from v. For large n it
// exponentiates the matrix once instead of stepping n times.
func (c *Chain) Evolve(v []float64, n int) ([]float64, error) {
	if n < 0 {
		return nil, fmt.Errorf("evolve %d steps: %w", n, ErrChain)
	}
	if len(v) != c.States() {
		return nil, fmt.Errorf("evolve with vector length %d, want %d: %w", len(v), c.States(), ErrChain)
	}
	// Stepping n times costs n*z^2 scalar multiplications. Binary
	// exponentiation costs one z^3 matrix product per squaring
	// (bits.Len(n)-1 of them) plus one per extra set bit of n
	// (bits.OnesCount(n)-1), and a final z^2 vector product — so the exact
	// crossover is n <= muls*z, not the 2*log2(n)*z the previous heuristic
	// used (that overestimated the matrix path's cost for sparse-bit n,
	// e.g. powers of two, and stepped up to twice longer than optimal).
	muls := bits.Len(uint(n)) - 1 + bits.OnesCount(uint(n)) - 1
	if muls < 1 {
		muls = 1 // n <= 1 never pays for an explicit power
	}
	if n <= muls*c.States() {
		out := append([]float64(nil), v...)
		var err error
		for i := 0; i < n; i++ {
			out, err = c.Step(out)
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	p, err := matrix.Pow(c.t, n)
	if err != nil {
		return nil, err
	}
	return matrix.VecMul(v, p)
}
