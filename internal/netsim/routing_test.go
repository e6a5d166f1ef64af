package netsim

import (
	"errors"
	"testing"
	"time"

	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
)

// routeHops reproduces what the pre-cache Send computed per report: the
// greedy route length when greedy succeeds, the BFS repair length when it
// is stuck, and (-1, rerouted) when the base is unreachable.
func routeHops(t *testing.T, n *Network, src, base int) (hops int, rerouted bool) {
	t.Helper()
	path, rerouted, err := n.Route(src, base)
	if err != nil {
		if !errors.Is(err, ErrUnreachable) {
			t.Fatalf("Route(%d, %d): %v", src, base, err)
		}
		return -1, rerouted
	}
	return len(path) - 1, rerouted
}

// TestRoutingMatchesRouteWalks cross-checks the cached table against the
// walk-per-report routing it replaced, on random deployments sparse enough
// to contain greedy voids and partitions.
func TestRoutingMatchesRouteWalks(t *testing.T) {
	bounds := geom.Square(1000)
	for seed := int64(1); seed <= 8; seed++ {
		rng := field.NewRand(seed)
		pts, err := field.Uniform(60, bounds, rng)
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(pts, 170, bounds)
		if err != nil {
			t.Fatal(err)
		}
		r, err := n.NewRouting(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := LossModel{PerHopDelivery: 1, PerHop: time.Second, Budget: time.Hour}
		for src := 0; src < n.Len(); src++ {
			wantHops, wantRerouted := routeHops(t, n, src, 0)
			d, err := r.Send(src, m, field.NewRand(seed))
			if err != nil {
				t.Fatal(err)
			}
			if wantHops < 0 {
				if d.Outcome != Lost || d.Rerouted != wantRerouted {
					t.Errorf("seed %d src %d: got %+v, want Lost rerouted=%v", seed, src, d, wantRerouted)
				}
				continue
			}
			if d.Hops != wantHops || d.Rerouted != wantRerouted {
				t.Errorf("seed %d src %d: got hops=%d rerouted=%v, want hops=%d rerouted=%v",
					seed, src, d.Hops, d.Rerouted, wantHops, wantRerouted)
			}
		}
	}
}

// TestRoutingResetMatchesSubset checks that a table Reset with an alive
// mask reproduces, node for node, the Subset-and-rebuild path it replaced
// in the fault injector.
func TestRoutingResetMatchesSubset(t *testing.T) {
	bounds := geom.Square(1000)
	rng := field.NewRand(3)
	pts, err := field.Uniform(80, bounds, rng)
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(pts, 180, bounds)
	if err != nil {
		t.Fatal(err)
	}
	r, err := full.NewRouting(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := LossModel{PerHopDelivery: 1, PerHop: time.Second, Budget: time.Hour}
	for trial := int64(0); trial < 6; trial++ {
		keep, err := randomFailures(full.Len(), 0.7, field.NewRand(100+trial), 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Reset(keep); err != nil {
			t.Fatal(err)
		}
		sub, mapping, err := subset(full, keep, bounds)
		if err != nil {
			t.Fatal(err)
		}
		subBase := -1
		origToSub := make(map[int]int, len(mapping))
		for subID, origID := range mapping {
			origToSub[origID] = subID
			if origID == 5 {
				subBase = subID
			}
		}
		for subSrc, origSrc := range mapping {
			wantHops, wantRerouted := routeHops(t, sub, subSrc, subBase)
			d, err := r.Send(origSrc, m, field.NewRand(1))
			if err != nil {
				t.Fatal(err)
			}
			gotHops := d.Hops
			if d.Outcome == Lost && d.Attempts == 0 && origSrc != 5 {
				gotHops = -1
			}
			if gotHops != wantHops || d.Rerouted != wantRerouted {
				t.Errorf("trial %d src %d: got hops=%d rerouted=%v, want hops=%d rerouted=%v",
					trial, origSrc, gotHops, d.Rerouted, wantHops, wantRerouted)
			}
		}
		_ = origToSub
	}
}

func TestRoutingRejectsDeadBase(t *testing.T) {
	n := mustNetwork(t, line(4, 1), 1.5, geom.Square(10))
	alive := []bool{true, false, true, true}
	if _, err := n.NewRouting(1, alive); err == nil {
		t.Fatal("NewRouting with dead base should fail")
	}
	r, err := n.NewRouting(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Reset([]bool{false, true, true, true}); err == nil {
		t.Fatal("Reset with dead base should fail")
	}
	if err := r.Reset([]bool{true}); err == nil {
		t.Fatal("Reset with short mask should fail")
	}
}

func TestRoutingHops(t *testing.T) {
	n := mustNetwork(t, line(5, 1), 1.5, geom.Square(10))
	r, err := n.NewRouting(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		h, err := r.Hops(i)
		if err != nil {
			t.Fatal(err)
		}
		if h != i {
			t.Errorf("Hops(%d) = %d, want %d", i, h, i)
		}
	}
	// Killing node 2 partitions the line: 3 and 4 become unreachable.
	if err := r.Reset([]bool{true, true, false, true, true}); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{0, 1, -1, -1, -1} {
		h, err := r.Hops(i)
		if err != nil {
			t.Fatal(err)
		}
		if h != want {
			t.Errorf("after partition Hops(%d) = %d, want %d", i, h, want)
		}
	}
	if _, err := r.Hops(99); err == nil {
		t.Fatal("Hops out of range should fail")
	}
}
