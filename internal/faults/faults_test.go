package faults

import (
	"math"
	"math/rand"
	"testing"

	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
)

func deployment(t *testing.T, n int, bounds geom.Rect, seed int64) []geom.Point {
	t.Helper()
	pts, err := field.Uniform(n, bounds, field.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

func TestNoneKeepsEveryoneAlive(t *testing.T) {
	bounds := geom.Square(1000)
	nodes := deployment(t, 50, bounds, 1)
	masks, err := expand(None{}, nodes, bounds, 5, field.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(masks) != 5 {
		t.Fatalf("periods = %d", len(masks))
	}
	for t2, m := range masks {
		if AliveFraction(m) != 1 {
			t.Errorf("period %d alive fraction %v", t2+1, AliveFraction(m))
		}
	}
}

func TestBernoulliDeadFraction(t *testing.T) {
	bounds := geom.Square(1000)
	nodes := deployment(t, 5000, bounds, 3)
	masks, err := expand(Bernoulli{DeadFrac: 0.3}, nodes, bounds, 4, field.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	got := AliveFraction(masks[0])
	if math.Abs(got-0.7) > 0.03 {
		t.Errorf("alive fraction %v, want ~0.7", got)
	}
	// Death is decided once: the mask is constant across periods.
	for p := 1; p < len(masks); p++ {
		for i := range masks[p] {
			if masks[p][i] != masks[0][i] {
				t.Fatalf("period %d mask differs from period 1", p+1)
			}
		}
	}
}

func TestBernoulliValidation(t *testing.T) {
	bounds := geom.Square(100)
	nodes := deployment(t, 3, bounds, 5)
	if _, err := expand(Bernoulli{DeadFrac: 1.5}, nodes, bounds, 3, field.NewRand(1)); err == nil {
		t.Error("dead fraction > 1 should fail")
	}
	if _, err := expand(Bernoulli{DeadFrac: 0.5}, nodes, bounds, 0, field.NewRand(1)); err == nil {
		t.Error("zero periods should fail")
	}
}

func TestLifetimeMonotoneAndGeometric(t *testing.T) {
	bounds := geom.Square(1000)
	nodes := deployment(t, 4000, bounds, 6)
	const hazard = 0.1
	masks, err := expand(Lifetime{Hazard: hazard}, nodes, bounds, 10, field.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	prev := 1.0
	for p, m := range masks {
		frac := AliveFraction(m)
		if frac > prev {
			t.Fatalf("period %d alive fraction %v rose above %v", p+1, frac, prev)
		}
		want := math.Pow(1-hazard, float64(p+1))
		if math.Abs(frac-want) > 0.03 {
			t.Errorf("period %d alive fraction %v, want ~%v", p+1, frac, want)
		}
		prev = frac
	}
	// Once dead, stays dead.
	for p := 1; p < len(masks); p++ {
		for i := range masks[p] {
			if masks[p][i] && !masks[p-1][i] {
				t.Fatalf("node %d resurrected at period %d", i, p+1)
			}
		}
	}
}

func TestBlobKillsDiskFromEventPeriod(t *testing.T) {
	bounds := geom.Square(1000)
	// A 3x3 grid of known positions.
	var nodes []geom.Point
	for _, x := range []float64{100, 500, 900} {
		for _, y := range []float64{100, 500, 900} {
			nodes = append(nodes, geom.Point{X: x, Y: y})
		}
	}
	center := geom.Point{X: 500, Y: 500}
	masks, err := expand(Blob{Radius: 450, At: 3, Center: &center}, nodes, bounds, 5, field.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range nodes {
		inBlast := nodes[i].Dist(center) <= 450
		for p := range masks {
			wantAlive := !(inBlast && p >= 2) // periods 3..5 post-event
			if masks[p][i] != wantAlive {
				t.Errorf("node %d period %d alive = %v, want %v", i, p+1, masks[p][i], wantAlive)
			}
		}
	}
}

func TestBlobRandomCenterDeterministicPerSeed(t *testing.T) {
	bounds := geom.Square(1000)
	nodes := deployment(t, 200, bounds, 9)
	a, err := expand(Blob{Radius: 300}, nodes, bounds, 4, field.NewRand(10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := expand(Blob{Radius: 300}, nodes, bounds, 4, field.NewRand(10))
	if err != nil {
		t.Fatal(err)
	}
	for p := range a {
		for i := range a[p] {
			if a[p][i] != b[p][i] {
				t.Fatal("same seed produced different masks")
			}
		}
	}
}

func TestComposeIntersects(t *testing.T) {
	bounds := geom.Square(1000)
	nodes := deployment(t, 2000, bounds, 11)
	model := Compose{Bernoulli{DeadFrac: 0.2}, Bernoulli{DeadFrac: 0.2}}
	masks, err := expand(model, nodes, bounds, 3, field.NewRand(12))
	if err != nil {
		t.Fatal(err)
	}
	got := AliveFraction(masks[0])
	if math.Abs(got-0.64) > 0.04 {
		t.Errorf("composed alive fraction %v, want ~0.64", got)
	}
	if _, err := expand(Compose{}, nodes, bounds, 3, field.NewRand(1)); err == nil {
		t.Error("empty composition should fail")
	}
}

func TestAliveFractionHelpers(t *testing.T) {
	if AliveFraction(nil) != 1 {
		t.Error("empty mask should count as fully alive")
	}
	if got := AliveFraction([]bool{true, false, true, false}); got != 0.5 {
		t.Errorf("alive fraction %v, want 0.5", got)
	}
}

// expand turns a model's death column into per-period alive masks,
// alive[t][i] for period t+1, the shape the tests above assert on.
func expand(m Model, nodes []geom.Point, bounds geom.Rect, periods int, rng *rand.Rand) ([][]bool, error) {
	deaths, err := m.Deaths(nil, nodes, bounds, periods, rng)
	if err != nil {
		return nil, err
	}
	masks := make([][]bool, periods)
	for t := range masks {
		masks[t] = make([]bool, len(nodes))
		for i, d := range deaths {
			masks[t][i] = t+1 < d
		}
	}
	return masks, nil
}

// AliveFraction returns the fraction of true entries in a mask (1 for an
// empty mask, matching a zero-sensor deployment having nothing to lose).
// It is the oracle for the simulator's running alive count.
func AliveFraction(mask []bool) float64 {
	if len(mask) == 0 {
		return 1
	}
	alive := 0
	for _, a := range mask {
		if a {
			alive++
		}
	}
	return float64(alive) / float64(len(mask))
}

// oracleMasks is the per-period mask builder the death columns replaced:
// every model drew its randomness in this order and materialized one
// alive mask per period. It is kept as the test oracle for Deaths.
func oracleMasks(t *testing.T, m Model, nodes []geom.Point, bounds geom.Rect, periods int, rng *rand.Rand) [][]bool {
	t.Helper()
	alive := make([]bool, len(nodes))
	snapshot := func() [][]bool {
		masks := make([][]bool, periods)
		for p := range masks {
			masks[p] = append([]bool(nil), alive...)
		}
		return masks
	}
	switch m := m.(type) {
	case None:
		for i := range alive {
			alive[i] = true
		}
		return snapshot()
	case Bernoulli:
		for i := range alive {
			alive[i] = rng.Float64() >= m.DeadFrac
		}
		return snapshot()
	case Lifetime:
		for i := range alive {
			alive[i] = rng.Float64() >= m.InitialDeadFrac
		}
		masks := make([][]bool, periods)
		for p := range masks {
			for i := range alive {
				if alive[i] && rng.Float64() < m.Hazard {
					alive[i] = false
				}
			}
			masks[p] = append([]bool(nil), alive...)
		}
		return masks
	case Blob:
		at := max(m.At, 1)
		center := geom.Point{
			X: bounds.MinX + rng.Float64()*(bounds.MaxX-bounds.MinX),
			Y: bounds.MinY + rng.Float64()*(bounds.MaxY-bounds.MinY),
		}
		if m.Center != nil {
			center = *m.Center
		}
		for i := range alive {
			alive[i] = true
		}
		masks := snapshot()
		for p := at - 1; p < periods; p++ {
			for i, pt := range nodes {
				if pt.Dist2(center) <= m.Radius*m.Radius {
					masks[p][i] = false
				}
			}
		}
		return masks
	case Compose:
		out := oracleMasks(t, m[0], nodes, bounds, periods, rng)
		for _, c := range m[1:] {
			next := oracleMasks(t, c, nodes, bounds, periods, rng)
			for p := range out {
				for i := range out[p] {
					out[p][i] = out[p][i] && next[p][i]
				}
			}
		}
		return out
	}
	t.Fatalf("no oracle for %T", m)
	return nil
}

// countingSource counts the draws a model takes from its rng.
type countingSource struct {
	rand.Source
	draws int
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.Source.Int63()
}

// TestDeathsMatchOracleMasks checks every model's death column against
// the old mask builder, period by period, and that both take the same
// number of draws, so the draws after them line up too. The running
// alive fraction the simulator keeps must equal AliveFraction's.
func TestDeathsMatchOracleMasks(t *testing.T) {
	bounds := geom.Square(1000)
	center := geom.Point{X: 300, Y: 600}
	models := []Model{
		None{},
		Bernoulli{DeadFrac: 0.3},
		Bernoulli{DeadFrac: 1},
		Lifetime{Hazard: 0.1},
		Lifetime{Hazard: 0.05, InitialDeadFrac: 0.2},
		Blob{Radius: 300},
		Blob{Radius: 250, At: 4},
		Blob{Radius: 400, At: 9}, // strikes after the mission
		Blob{Radius: 350, At: 2, Center: &center},
		Compose{Lifetime{Hazard: 0.05}, Blob{Radius: 300, At: 3}},
		Compose{Bernoulli{DeadFrac: 0.2}, Lifetime{Hazard: 0.08, InitialDeadFrac: 0.1}, Blob{Radius: 200}},
	}
	const periods = 8
	for seed := int64(1); seed <= 5; seed++ {
		nodes := deployment(t, 300, bounds, seed)
		dst := []int{-1} // a reused column must be resized and overwritten
		for _, m := range models {
			oracleSrc := &countingSource{Source: rand.NewSource(seed)}
			want := oracleMasks(t, m, nodes, bounds, periods, rand.New(oracleSrc))
			src := &countingSource{Source: rand.NewSource(seed)}
			var err error
			if dst, err = m.Deaths(dst, nodes, bounds, periods, rand.New(src)); err != nil {
				t.Fatal(err)
			}
			if src.draws != oracleSrc.draws {
				t.Errorf("%T%+v seed %d: %d draws, oracle took %d", m, m, seed, src.draws, oracleSrc.draws)
			}
			if len(dst) != len(nodes) {
				t.Fatalf("%T%+v: death column covers %d of %d nodes", m, m, len(dst), len(nodes))
			}
			alive := len(nodes)
			for p := 1; p <= periods; p++ {
				for i, d := range dst {
					if d < 1 || d > periods+1 {
						t.Fatalf("%T%+v: node %d death period %d outside [1, %d]", m, m, i, d, periods+1)
					}
					if d == p {
						alive--
					}
					if got := d > p; got != want[p-1][i] {
						t.Fatalf("%T%+v seed %d: node %d alive in period %d = %v, oracle %v", m, m, seed, i, p, got, want[p-1][i])
					}
				}
				if got := float64(alive) / float64(len(nodes)); got != AliveFraction(want[p-1]) {
					t.Errorf("%T%+v period %d: running alive fraction %v, oracle %v", m, m, p, got, AliveFraction(want[p-1]))
				}
			}
		}
	}
}
