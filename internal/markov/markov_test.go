package markov

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/groupdetect/gbd/internal/dist"
	"github.com/groupdetect/gbd/internal/matrix"
	"github.com/groupdetect/gbd/internal/numeric"
)

func mustChain(t *testing.T, rows [][]float64) *Chain {
	t.Helper()
	m, err := matrix.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(m, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	rect, _ := matrix.FromRows([][]float64{{1, 0}})
	if _, err := New(rect, 1e-9); err == nil {
		t.Error("non-square matrix should fail")
	}
	neg, _ := matrix.FromRows([][]float64{{-0.5, 1.5}, {0, 1}})
	if _, err := New(neg, 1e-9); err == nil {
		t.Error("negative entries should fail")
	}
	over, _ := matrix.FromRows([][]float64{{0.7, 0.7}, {0, 1}})
	if _, err := New(over, 1e-9); err == nil {
		t.Error("row sum > 1 should fail")
	}
	nan, _ := matrix.FromRows([][]float64{{math.NaN(), 0}, {0, 1}})
	if _, err := New(nan, 1e-9); err == nil {
		t.Error("NaN should fail")
	}
	sub, _ := matrix.FromRows([][]float64{{0.4, 0.4}, {0, 0.9}})
	if _, err := New(sub, 1e-9); err != nil {
		t.Errorf("sub-stochastic chain should be accepted: %v", err)
	}
}

func TestNewClonesMatrix(t *testing.T) {
	m, _ := matrix.FromRows([][]float64{{0.5, 0.5}, {0, 1}})
	c, err := New(m, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	m.Set(0, 0, 0) // mutate the original
	if c.Matrix().At(0, 0) != 0.5 {
		t.Error("New must copy the matrix")
	}
}

func TestShiftKernelBasic(t *testing.T) {
	inc := []float64{0.5, 0.3, 0.2} // 0, 1 or 2 reports
	c, err := ShiftKernel(inc, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Step([]float64{1, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 0.3, 0.2, 0, 0}
	for i := range want {
		if !numeric.AlmostEqual(v[i], want[i], 1e-12, 1e-12) {
			t.Errorf("step[%d] = %v, want %v", i, v[i], want[i])
		}
	}
}

func TestShiftKernelSaturation(t *testing.T) {
	inc := []float64{0.5, 0.3, 0.2}
	sat, err := ShiftKernel(inc, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	// From the last state, all mass must stay there.
	v, _ := sat.Step([]float64{0, 0, 1})
	if !numeric.AlmostEqual(v[2], 1, 1e-12, 1e-12) {
		t.Errorf("saturating kernel lost mass: %v", v)
	}
	drop, err := ShiftKernel(inc, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	v, _ = drop.Step([]float64{0, 0, 1})
	if !numeric.AlmostEqual(v[2], 0.5, 1e-12, 1e-12) {
		t.Errorf("dropping kernel kept overflow: %v", v)
	}
}

func TestShiftKernelValidation(t *testing.T) {
	if _, err := ShiftKernel([]float64{1}, 0, true); err == nil {
		t.Error("size 0 should fail")
	}
	if _, err := ShiftKernel([]float64{-0.1}, 3, true); err == nil {
		t.Error("negative increment should fail")
	}
	if _, err := ShiftKernel([]float64{0.9, 0.9}, 3, true); err == nil {
		t.Error("increments summing over 1 should fail")
	}
}

// TestShiftKernelEqualsConvolution is the core cross-check between the two
// Eq. (12) evaluation paths: evolving the shift-kernel chain equals
// convolving the increment distributions.
func TestShiftKernelEqualsConvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := func(n8, steps8 uint8) bool {
		n := 2 + int(n8%5)
		steps := 1 + int(steps8%5)
		inc := make(dist.PMF, n)
		for i := range inc {
			inc[i] = rng.Float64()
		}
		inc = inc.Normalized()
		size := (n-1)*steps + 1
		c, err := ShiftKernel(inc, size, true)
		if err != nil {
			return false
		}
		v0 := make([]float64, size)
		v0[0] = 1
		got, err := c.Evolve(v0, steps)
		if err != nil {
			return false
		}
		want := dist.ConvolvePower(inc, steps)
		for i := range got {
			w := 0.0
			if i < len(want) {
				w = want[i]
			}
			if !numeric.AlmostEqual(got[i], w, 1e-10, 1e-9) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestEvolveMatchesStepping(t *testing.T) {
	inc := []float64{0.6, 0.4}
	const size = 40
	c, err := ShiftKernel(inc, size, true)
	if err != nil {
		t.Fatal(err)
	}
	v0 := make([]float64, size)
	v0[0] = 1
	// Large step count forces the matrix-power path.
	const steps = 300
	byPow, err := c.Evolve(v0, steps)
	if err != nil {
		t.Fatal(err)
	}
	byStep := append([]float64(nil), v0...)
	for i := 0; i < steps; i++ {
		byStep, err = c.Step(byStep)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range byPow {
		if !numeric.AlmostEqual(byPow[i], byStep[i], 1e-9, 1e-9) {
			t.Fatalf("state %d: pow %v, step %v", i, byPow[i], byStep[i])
		}
	}
}

func TestEvolveValidation(t *testing.T) {
	c := mustChain(t, [][]float64{{1, 0}, {0, 1}})
	if _, err := c.Evolve([]float64{1, 0}, -1); err == nil {
		t.Error("negative steps should fail")
	}
	if _, err := c.Evolve([]float64{1}, 1); err == nil {
		t.Error("wrong vector length should fail")
	}
	v, err := c.Evolve([]float64{0.3, 0.7}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 0.3 || v[1] != 0.7 {
		t.Error("0 steps should return input")
	}
}

func TestStationaryTwoState(t *testing.T) {
	// Birth-death chain with known stationary distribution; Evolve's
	// repeated-squaring path must converge onto it from any start.
	c := mustChain(t, [][]float64{{0.9, 0.1}, {0.3, 0.7}})
	pi, err := c.Evolve([]float64{0, 1}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	// pi = (0.75, 0.25): solves pi = pi*T.
	if !numeric.AlmostEqual(pi[0], 0.75, 1e-6, 1e-6) || !numeric.AlmostEqual(pi[1], 0.25, 1e-6, 1e-6) {
		t.Errorf("stationary = %v, want [0.75 0.25]", pi)
	}
}

// gamblersRuin is the symmetric walk on 0..4 with absorbing ends.
func gamblersRuin(t *testing.T) *Chain {
	return mustChain(t, [][]float64{
		{1, 0, 0, 0, 0},
		{0.5, 0, 0.5, 0, 0},
		{0, 0.5, 0, 0.5, 0},
		{0, 0, 0.5, 0, 0.5},
		{0, 0, 0, 0, 1},
	})
}

func TestAbsorptionGamblersRuin(t *testing.T) {
	c := gamblersRuin(t)
	// Fair gambler's ruin: P[hit 4 | start s] = s/4, the mass Evolve
	// leaves in state 4 once the walk has (all but) surely stopped.
	for s := 0; s <= 4; s++ {
		v := make([]float64, 5)
		v[s] = 1
		end, err := c.Evolve(v, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(s) / 4; !numeric.AlmostEqual(end[4], want, 1e-6, 1e-6) {
			t.Errorf("start %d: P[absorbed at 4] = %v, want %v", s, end[4], want)
		}
	}
}

func TestStatesAndMatrixCopy(t *testing.T) {
	c := mustChain(t, [][]float64{{0.5, 0.5}, {0, 1}})
	if c.States() != 2 {
		t.Errorf("States = %d", c.States())
	}
	m := c.Matrix()
	m.Set(0, 0, 99)
	if c.Matrix().At(0, 0) != 0.5 {
		t.Error("Matrix must return a copy")
	}
}

func TestHittingTimeGamblersRuin(t *testing.T) {
	c := gamblersRuin(t)
	// Expected time to hit {0, 4} from state s is s*(4-s); it is the sum
	// over steps of the mass Step has not yet absorbed.
	for s := 0; s <= 4; s++ {
		v := make([]float64, 5)
		v[s] = 1
		h := 0.0
		for step := 0; step < 1000; step++ {
			h += 1 - v[0] - v[4]
			var err error
			if v, err = c.Step(v); err != nil {
				t.Fatal(err)
			}
		}
		if want := float64(s * (4 - s)); !numeric.AlmostEqual(h, want, 1e-6, 1e-6) {
			t.Errorf("start %d: hitting time %v, want %v", s, h, want)
		}
	}
}

// TestEvolveCrossoverAgreement pins the step-vs-squaring dispatch: for
// step counts bracketing the exact crossover n = muls*z (muls =
// bits.Len(n)-1 + OnesCount(n)-1), both evaluation strategies must agree
// to 1e-12 on every state, so whichever Evolve picks is invisible to
// callers. Counts include powers of two (fewest matrix products, the case
// the old 2*log2(n)*z heuristic priced worst) and dense-bit counts.
func TestEvolveCrossoverAgreement(t *testing.T) {
	inc := []float64{0.5, 0.3, 0.15}
	const size = 12
	c, err := ShiftKernel(inc, size, true)
	if err != nil {
		t.Fatal(err)
	}
	v0 := make([]float64, size)
	v0[0] = 1
	for _, n := range []int{1, 2, 3, 7, 12, 13, 16, 31, 32, 33, 63, 64, 96, 127, 128, 255, 256} {
		got, err := c.Evolve(v0, n)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: explicit stepping, the paper-literal evaluation.
		want := append([]float64(nil), v0...)
		for i := 0; i < n; i++ {
			want, err = c.Step(want)
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := range want {
			if diff := math.Abs(got[i] - want[i]); diff > 1e-12 {
				t.Fatalf("n=%d state %d: evolve %v, stepped %v (diff %g)", n, i, got[i], want[i], diff)
			}
		}
	}
}
