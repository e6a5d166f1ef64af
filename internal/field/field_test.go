package field

import (
	"math"
	"testing"

	"github.com/groupdetect/gbd/internal/geom"
)

func TestDeriveSeedDeterministicAndSpread(t *testing.T) {
	a := DeriveSeed(42, 1)
	b := DeriveSeed(42, 1)
	if a != b {
		t.Error("DeriveSeed must be deterministic")
	}
	if DeriveSeed(42, 2) == a {
		t.Error("different streams should differ")
	}
	if DeriveSeed(43, 1) == a {
		t.Error("different bases should differ")
	}
	seen := make(map[int64]bool)
	for i := int64(0); i < 1000; i++ {
		seen[DeriveSeed(7, i)] = true
	}
	if len(seen) != 1000 {
		t.Errorf("seed collisions: %d unique of 1000", len(seen))
	}
}

func TestNewRandDeterministic(t *testing.T) {
	r1 := NewRand(5)
	r2 := NewRand(5)
	for i := 0; i < 10; i++ {
		if r1.Float64() != r2.Float64() {
			t.Fatal("same seed must replay the same stream")
		}
	}
}

func TestUniformInBounds(t *testing.T) {
	bounds := geom.Rect{MinX: 10, MinY: 20, MaxX: 30, MaxY: 50}
	pts, err := Uniform(500, bounds, NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 500 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if !bounds.Contains(p) {
			t.Fatalf("point %v outside bounds", p)
		}
	}
}

func TestUniformIsRoughlyUniform(t *testing.T) {
	bounds := geom.Square(100)
	pts, err := Uniform(40_000, bounds, NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	// Quadrant counts should be near 10k each (4-sigma ~ 4*sqrt(10000*0.75)).
	var q [4]int
	for _, p := range pts {
		i := 0
		if p.X > 50 {
			i |= 1
		}
		if p.Y > 50 {
			i |= 2
		}
		q[i]++
	}
	for i, c := range q {
		if math.Abs(float64(c)-10000) > 400 {
			t.Errorf("quadrant %d count %d deviates from uniform", i, c)
		}
	}
}

func TestUniformErrors(t *testing.T) {
	if _, err := Uniform(-1, geom.Square(1), NewRand(1)); err == nil {
		t.Error("negative n should fail")
	}
	if _, err := Uniform(5, geom.Rect{}, NewRand(1)); err == nil {
		t.Error("empty bounds should fail")
	}
}

func TestGrid(t *testing.T) {
	bounds := geom.Square(100)
	pts, err := Grid(9, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 9 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if !bounds.Contains(p) {
			t.Fatalf("point %v outside bounds", p)
		}
	}
	// Distinctness.
	seen := map[geom.Point]bool{}
	for _, p := range pts {
		if seen[p] {
			t.Fatalf("duplicate grid point %v", p)
		}
		seen[p] = true
	}
	if got, err := Grid(0, bounds); err != nil || got != nil {
		t.Errorf("Grid(0) = %v, %v", got, err)
	}
	if _, err := Grid(-1, bounds); err == nil {
		t.Error("negative n should fail")
	}
	if _, err := Grid(4, geom.Rect{}); err == nil {
		t.Error("empty bounds should fail")
	}
}

func TestIndexQuerySegmentMatchesBruteForce(t *testing.T) {
	bounds := geom.Square(1000)
	rng := NewRand(7)
	pts, err := Uniform(2000, bounds, rng)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewIndex(pts, bounds, 50)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 2000 {
		t.Fatalf("Len = %d", idx.Len())
	}
	for trial := 0; trial < 50; trial++ {
		s := geom.Segment{
			A: geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			B: geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
		}
		r := rng.Float64() * 100
		got := idx.QuerySegment(s, r, nil)
		want := map[int]bool{}
		for i, p := range pts {
			if s.Dist(p) <= r {
				want[i] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d ids, want %d", trial, len(got), len(want))
		}
		for _, id := range got {
			if !want[id] {
				t.Fatalf("trial %d: unexpected id %d", trial, id)
			}
			if idx.Point(id) != pts[id] {
				t.Fatalf("Point(%d) mismatch", id)
			}
		}
	}
}

func TestIndexQueryCircle(t *testing.T) {
	pts := []geom.Point{{X: 5, Y: 5}, {X: 9, Y: 5}, {X: 50, Y: 50}}
	idx, err := NewIndex(pts, geom.Square(100), 10)
	if err != nil {
		t.Fatal(err)
	}
	got := idx.QueryCircle(geom.Point{X: 5, Y: 5}, 5, nil)
	if len(got) != 2 {
		t.Fatalf("QueryCircle = %v, want 2 hits", got)
	}
}

func TestIndexReusesDst(t *testing.T) {
	pts := []geom.Point{{X: 1, Y: 1}}
	idx, err := NewIndex(pts, geom.Square(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int, 0, 8)
	out := idx.QueryCircle(geom.Point{X: 1, Y: 1}, 1, buf)
	if len(out) != 1 || &out[0] != &buf[:1][0] {
		t.Error("dst should be extended in place when capacity allows")
	}
}

func TestIndexNegativeRadius(t *testing.T) {
	idx, err := NewIndex([]geom.Point{{X: 1, Y: 1}}, geom.Square(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.QueryCircle(geom.Point{X: 1, Y: 1}, -1, nil); len(got) != 0 {
		t.Error("negative radius should match nothing")
	}
}

func TestIndexClampsOutliers(t *testing.T) {
	// A point outside bounds still lands in a border cell and is found.
	pts := []geom.Point{{X: -5, Y: -5}}
	idx, err := NewIndex(pts, geom.Square(10), 2)
	if err != nil {
		t.Fatal(err)
	}
	got := idx.QueryCircle(geom.Point{X: 0, Y: 0}, 10, nil)
	if len(got) != 1 {
		t.Error("outlier point should still be queryable")
	}
}

func TestIndexValidation(t *testing.T) {
	if _, err := NewIndex(nil, geom.Rect{}, 1); err == nil {
		t.Error("empty bounds should fail")
	}
	if _, err := NewIndex(nil, geom.Square(10), 0); err == nil {
		t.Error("zero cell size should fail")
	}
	if _, err := NewIndex(nil, geom.Square(10), math.NaN()); err == nil {
		t.Error("NaN cell size should fail")
	}
}
