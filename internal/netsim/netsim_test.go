package netsim

import (
	"errors"
	"testing"
	"time"

	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
)

func line(n int, spacing float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * spacing, Y: 0}
	}
	return pts
}

func mustNetwork(t *testing.T, pts []geom.Point, r float64, bounds geom.Rect) *Network {
	t.Helper()
	n, err := New(pts, r, bounds)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 0, geom.Square(10)); err == nil {
		t.Error("zero range should fail")
	}
	if _, err := New(nil, 5, geom.Rect{}); err == nil {
		t.Error("empty bounds should fail")
	}
}

func TestLineTopology(t *testing.T) {
	n := mustNetwork(t, line(5, 10), 15, geom.Square(100))
	if n.Len() != 5 {
		t.Fatalf("Len = %d", n.Len())
	}
	// Node 0 reaches nodes at distance 10 only (range 15).
	if degree(n, 0) != 1 {
		t.Errorf("degree(0) = %d, want 1", degree(n, 0))
	}
	if degree(n, 2) != 2 {
		t.Errorf("degree(2) = %d, want 2", degree(n, 2))
	}
	if n.Components() != 1 {
		t.Errorf("components = %d, want 1", n.Components())
	}
	hops, err := shortestHops(n, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if hops != 4 {
		t.Errorf("hops = %d, want 4", hops)
	}
	if h, err := shortestHops(n, 2, 2); err != nil || h != 0 {
		t.Errorf("self hops = %d, %v", h, err)
	}
}

func TestDisconnected(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 100, Y: 0}}
	n := mustNetwork(t, pts, 10, geom.Square(200))
	if n.Components() != 2 {
		t.Errorf("components = %d, want 2", n.Components())
	}
	if n.Connected(0, 2) {
		t.Error("nodes 0 and 2 should be disconnected")
	}
	if !n.Connected(0, 1) {
		t.Error("nodes 0 and 1 should be connected")
	}
	if _, err := shortestHops(n, 0, 2); !errors.Is(err, ErrUnreachable) {
		t.Errorf("expected ErrUnreachable, got %v", err)
	}
}

func TestGreedyRouteStraight(t *testing.T) {
	n := mustNetwork(t, line(6, 10), 15, geom.Square(100))
	path, err := n.GreedyRoute(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 6 {
		t.Errorf("path = %v", path)
	}
	if path[0] != 0 || path[len(path)-1] != 5 {
		t.Errorf("path endpoints wrong: %v", path)
	}
}

func TestGreedyRouteStuckInVoid(t *testing.T) {
	// A classic void: the node closest to the destination has no neighbor
	// that is closer. src at origin, dst far right, and a detour-only
	// topology going up and around.
	pts := []geom.Point{
		{X: 0, Y: 0},   // 0 src
		{X: 0, Y: 10},  // 1 detour up
		{X: 10, Y: 14}, // 2 detour across
		{X: 20, Y: 10}, // 3 detour down
		{X: 20, Y: 0},  // 4 dst
	}
	n := mustNetwork(t, pts, 11, geom.Rect{MinX: -5, MinY: -5, MaxX: 30, MaxY: 30})
	// BFS finds the detour.
	hops, err := shortestHops(n, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if hops != 4 {
		t.Errorf("hops = %d, want 4", hops)
	}
	// Greedy gets stuck: node 0's only neighbor (1) is farther from dst
	// than 0 itself... actually dist(1,dst)=sqrt(400+100)=22.4 > 20, so
	// greedy cannot even leave the source.
	if _, err := n.GreedyRoute(0, 4); !errors.Is(err, ErrGreedyStuck) {
		t.Errorf("expected ErrGreedyStuck, got %v", err)
	}
}

func TestGreedyRouteIDValidation(t *testing.T) {
	n := mustNetwork(t, line(3, 10), 15, geom.Square(100))
	if _, err := n.GreedyRoute(-1, 2); err == nil {
		t.Error("negative id should fail")
	}
	if _, err := shortestHops(n, 0, 7); err == nil {
		t.Error("out-of-range id should fail")
	}
}

func TestDeliveryLine(t *testing.T) {
	n := mustNetwork(t, line(7, 10), 15, geom.Square(100))
	stats, err := n.Delivery(0, time.Second, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Nodes != 6 || stats.Reachable != 6 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.MaxHops != 6 {
		t.Errorf("max hops = %d, want 6", stats.MaxHops)
	}
	if stats.MeanHops != 3.5 {
		t.Errorf("mean hops = %v, want 3.5", stats.MeanHops)
	}
	// Budget of 4 hops: nodes 1..4 make it, 5 and 6 do not.
	if stats.WithinBudget != 4 {
		t.Errorf("within budget = %d, want 4", stats.WithinBudget)
	}
	if stats.GreedyOK != 6 {
		t.Errorf("greedy ok = %d, want 6", stats.GreedyOK)
	}
}

func TestDeliveryValidation(t *testing.T) {
	n := mustNetwork(t, line(3, 10), 15, geom.Square(100))
	if _, err := n.Delivery(9, time.Second, time.Minute); err == nil {
		t.Error("bad base id should fail")
	}
	if _, err := n.Delivery(0, 0, time.Minute); err == nil {
		t.Error("zero per-hop should fail")
	}
	if _, err := n.Delivery(0, time.Second, 0); err == nil {
		t.Error("zero budget should fail")
	}
}

// TestPaperCommAssumption verifies the Section-4 claim on the ONR scenario:
// with a 6 km communication range and enough nodes, reports cross the 32 km
// field within a 1-minute sensing period at ~10 s per hop.
func TestPaperCommAssumption(t *testing.T) {
	bounds := geom.Square(32000)
	rng := field.NewRand(77)
	pts, err := field.Uniform(240, bounds, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Base station at the field center: use the node nearest the center.
	center := geom.Point{X: 16000, Y: 16000}
	base := 0
	for i, p := range pts {
		if p.Dist(center) < pts[base].Dist(center) {
			base = i
		}
	}
	n := mustNetwork(t, pts, 6000, bounds)
	stats, err := n.Delivery(base, 10*time.Second, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reachable < stats.Nodes*9/10 {
		t.Errorf("only %d/%d nodes reachable at N=240", stats.Reachable, stats.Nodes)
	}
	if stats.MaxHops > 8 {
		t.Errorf("max hops = %d, paper expects ~6", stats.MaxHops)
	}
	if stats.WithinBudget < stats.Reachable*9/10 {
		t.Errorf("only %d/%d reachable nodes within the sensing period", stats.WithinBudget, stats.Reachable)
	}
}

func TestNodeAccessor(t *testing.T) {
	pts := line(2, 7)
	n := mustNetwork(t, pts, 10, geom.Square(20))
	if node(n, 1) != pts[1] {
		t.Error("Node accessor wrong")
	}
}

// hopsFrom is every node's shortest hop count to base, read off an
// all-alive routing table; -1 marks a node cut off from base.
func hopsFrom(n *Network, base int) ([]int, error) {
	r, err := n.NewRouting(base, nil)
	if err != nil {
		return nil, err
	}
	hops := make([]int, n.Len())
	for i := range hops {
		if hops[i], err = r.Hops(i); err != nil {
			return nil, err
		}
	}
	return hops, nil
}

func TestHopsFrom(t *testing.T) {
	n := mustNetwork(t, line(5, 10), 15, geom.Square(100))
	hops, err := hopsFrom(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{0, 1, 2, 3, 4} {
		if hops[i] != want {
			t.Errorf("hops[%d] = %d, want %d", i, hops[i], want)
		}
	}
	if _, err := hopsFrom(n, -1); err == nil {
		t.Error("bad base should fail")
	}
	// Disconnected nodes report -1.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}
	d := mustNetwork(t, pts, 10, geom.Square(200))
	hops, err = hopsFrom(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hops[1] != -1 {
		t.Errorf("disconnected hop count = %d, want -1", hops[1])
	}
}

func TestHopsFromMatchesShortestHops(t *testing.T) {
	bounds := geom.Square(32000)
	pts, err := field.Uniform(150, bounds, field.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	n := mustNetwork(t, pts, 6000, bounds)
	hops, err := hopsFrom(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n.Len(); i += 17 {
		want, err := shortestHops(n, 0, i)
		if err != nil {
			if hops[i] != -1 {
				t.Errorf("node %d: bulk %d, pairwise unreachable", i, hops[i])
			}
			continue
		}
		if hops[i] != want {
			t.Errorf("node %d: bulk %d, pairwise %d", i, hops[i], want)
		}
	}
}

// TestGreedyOKMatchesGreedyRoute asserts the memoized greedy walks that
// Delivery counts agree with GreedyRoute, verdict and hop count, on random
// sparse deployments, including disconnected and void-heavy ones.
func TestGreedyOKMatchesGreedyRoute(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := field.NewRand(seed)
		bounds := geom.Square(32000)
		pts := make([]geom.Point, 120)
		for i := range pts {
			pts[i] = geom.Point{
				X: bounds.MinX + rng.Float64()*(bounds.MaxX-bounds.MinX),
				Y: bounds.MinY + rng.Float64()*(bounds.MaxY-bounds.MinY),
			}
		}
		net := mustNetwork(t, pts, 5000, bounds)
		r, err := net.NewRouting(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pts {
			path, err := net.GreedyRoute(i, 0)
			got := r.greedyHopsLocked(int32(i))
			if ok := err == nil; (got >= 0) != ok || (ok && int(got) != len(path)-1) {
				t.Fatalf("seed %d node %d: greedy hops %d, GreedyRoute %v err=%v", seed, i, got, path, err)
			}
		}
	}
}
