package netsim

import (
	"testing"
	"time"

	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
)

func TestSubsetValidation(t *testing.T) {
	n := mustNetwork(t, line(4, 10), 15, geom.Square(100))
	if _, _, err := subset(n, []bool{true}, geom.Square(100)); err == nil {
		t.Error("wrong mask length should fail")
	}
}

func TestSubsetRemovesNodes(t *testing.T) {
	n := mustNetwork(t, line(5, 10), 15, geom.Square(100))
	// Kill the middle node: the line splits in two.
	keep := []bool{true, true, false, true, true}
	sub, mapping, err := subset(n, keep, geom.Square(100))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 4 {
		t.Fatalf("subset size %d", sub.Len())
	}
	if sub.Components() != 2 {
		t.Errorf("components = %d, want 2 after cutting the line", sub.Components())
	}
	// Mapping points back to original ids, skipping the dead node.
	want := []int{0, 1, 3, 4}
	for i, m := range mapping {
		if m != want[i] {
			t.Fatalf("mapping = %v, want %v", mapping, want)
		}
	}
	// Positions survive the remap.
	if node(sub, 2) != node(n, 3) {
		t.Error("subset node positions wrong")
	}
}

func TestRandomFailures(t *testing.T) {
	rng := field.NewRand(5)
	keep, err := randomFailures(1000, 0.7, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !keep[0] {
		t.Error("protected node must survive")
	}
	alive := 0
	for _, k := range keep {
		if k {
			alive++
		}
	}
	if alive < 640 || alive > 760 {
		t.Errorf("survivors = %d, expected ~700", alive)
	}
	if _, err := randomFailures(10, 1.5, rng); err == nil {
		t.Error("bad survival probability should fail")
	}
	if _, err := randomFailures(-1, 0.5, rng); err == nil {
		t.Error("negative nodes should fail")
	}
	if _, err := randomFailures(10, 0.5, rng, 99); err == nil {
		t.Error("out-of-range protect should fail")
	}
}

func TestDeliveryDegradesGracefullyUnderFailures(t *testing.T) {
	// The ONR network at N=240 keeps most nodes reachable at 90% survival
	// but fragments heavily at 30%.
	bounds := geom.Square(32000)
	rng := field.NewRand(13)
	pts, err := field.Uniform(240, bounds, rng)
	if err != nil {
		t.Fatal(err)
	}
	n := mustNetwork(t, pts, 6000, bounds)
	base := 0

	run := func(survive float64) float64 {
		keep, err := randomFailures(n.Len(), survive, rng, base)
		if err != nil {
			t.Fatal(err)
		}
		sub, mapping, err := subset(n, keep, bounds)
		if err != nil {
			t.Fatal(err)
		}
		newBase := -1
		for i, m := range mapping {
			if m == base {
				newBase = i
				break
			}
		}
		if newBase < 0 {
			t.Fatal("protected base missing from subset")
		}
		stats, err := sub.Delivery(newBase, 10*time.Second, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Nodes == 0 {
			return 0
		}
		return float64(stats.Reachable) / float64(stats.Nodes)
	}

	healthy := run(0.9)
	crippled := run(0.3)
	if healthy < 0.8 {
		t.Errorf("90%% survival should keep most nodes reachable: %v", healthy)
	}
	if crippled >= healthy {
		t.Errorf("30%% survival (%v) should be worse than 90%% (%v)", crippled, healthy)
	}
}

// TestSubsetRoundTripsNodeIDs checks the id mapping both ways on a random
// deployment: every surviving node appears exactly once, its mapped
// original id points at the same position, and routes computed in the
// subset translate to valid original ids.
func TestSubsetRoundTripsNodeIDs(t *testing.T) {
	bounds := geom.Square(32000)
	pts, err := field.Uniform(120, bounds, field.NewRand(21))
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(pts, 6000, bounds)
	if err != nil {
		t.Fatal(err)
	}
	keep, err := randomFailures(n.Len(), 0.7, field.NewRand(22), 0)
	if err != nil {
		t.Fatal(err)
	}
	sub, mapping, err := subset(n, keep, bounds)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := 0
	for _, k := range keep {
		if k {
			wantLen++
		}
	}
	if sub.Len() != wantLen || len(mapping) != wantLen {
		t.Fatalf("subset %d nodes, mapping %d, want %d", sub.Len(), len(mapping), wantLen)
	}
	// Forward: sub id -> original id -> same position, original alive.
	seen := make(map[int]bool)
	for subID, origID := range mapping {
		if !keep[origID] {
			t.Fatalf("mapping points at dead node %d", origID)
		}
		if seen[origID] {
			t.Fatalf("original id %d mapped twice", origID)
		}
		seen[origID] = true
		if node(sub, subID) != node(n, origID) {
			t.Fatalf("sub node %d position differs from original %d", subID, origID)
		}
	}
	// Reverse: every surviving original id is reachable through the
	// inverse map, and inverse(forward) is the identity.
	inverse := make(map[int]int, len(mapping))
	for subID, origID := range mapping {
		inverse[origID] = subID
	}
	for origID, k := range keep {
		if !k {
			if _, ok := inverse[origID]; ok {
				t.Fatalf("dead node %d present in inverse map", origID)
			}
			continue
		}
		subID, ok := inverse[origID]
		if !ok {
			t.Fatalf("surviving node %d missing from subset", origID)
		}
		if mapping[subID] != origID {
			t.Fatalf("round trip broke: %d -> %d -> %d", origID, subID, mapping[subID])
		}
	}
	// A route in the subset maps to valid, alive original ids.
	if sub.Connected(0, sub.Len()-1) {
		path, _, err := sub.Route(0, sub.Len()-1)
		if err != nil {
			t.Fatal(err)
		}
		for _, subID := range path {
			if !keep[mapping[subID]] {
				t.Fatalf("route passes through dead original node %d", mapping[subID])
			}
		}
	}
}
