package netsim

import (
	"errors"
	"testing"
	"time"

	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
)

func reliableModel() LossModel {
	return LossModel{
		PerHopDelivery: 1,
		MaxRetries:     0,
		PerHop:         5 * time.Second,
		Budget:         time.Minute,
	}
}

func TestLossModelValidation(t *testing.T) {
	cases := []LossModel{
		{PerHopDelivery: 0, PerHop: time.Second, Budget: time.Minute},
		{PerHopDelivery: 1.5, PerHop: time.Second, Budget: time.Minute},
		{PerHopDelivery: 0.9, MaxRetries: -1, PerHop: time.Second, Budget: time.Minute},
		{PerHopDelivery: 0.9, PerHop: 0, Budget: time.Minute},
		{PerHopDelivery: 0.9, PerHop: time.Second, Backoff: -time.Second, Budget: time.Minute},
		{PerHopDelivery: 0.9, PerHop: time.Second, Budget: 0},
	}
	for i, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: %+v should fail validation", i, m)
		}
	}
	if err := reliableModel().Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
}

func TestSendPerfectChannelDelivers(t *testing.T) {
	n := mustNetwork(t, line(7, 10), 15, geom.Square(100))
	rng := field.NewRand(1)
	d, err := n.Send(6, 0, reliableModel(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if d.Outcome != Delivered {
		t.Fatalf("outcome = %v, want delivered", d.Outcome)
	}
	if d.Hops != 6 || d.Attempts != 6 {
		t.Errorf("hops = %d attempts = %d, want 6 and 6", d.Hops, d.Attempts)
	}
	if d.Latency != 30*time.Second {
		t.Errorf("latency = %v, want 30s", d.Latency)
	}
	if d.PeriodsLate(time.Minute) != 0 {
		t.Errorf("within-budget delivery should have zero period delay")
	}
}

func TestSendSelfDelivery(t *testing.T) {
	n := mustNetwork(t, line(3, 10), 15, geom.Square(100))
	d, err := n.Send(1, 1, reliableModel(), field.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if d.Outcome != Delivered || d.Hops != 0 || d.Latency != 0 {
		t.Errorf("self delivery = %+v", d)
	}
}

func TestSendOverBudgetIsLate(t *testing.T) {
	n := mustNetwork(t, line(10, 10), 15, geom.Square(120))
	m := reliableModel()
	m.PerHop = 20 * time.Second // 9 hops * 20s = 180s > 60s budget
	d, err := n.Send(9, 0, m, field.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	if d.Outcome != Late {
		t.Fatalf("outcome = %v, want late", d.Outcome)
	}
	if got := d.PeriodsLate(time.Minute); got != 2 {
		t.Errorf("periods late = %d, want 2 (180s over 60s periods)", got)
	}
}

func TestSendLossyChannelLosesWithoutRetries(t *testing.T) {
	n := mustNetwork(t, line(8, 10), 15, geom.Square(100))
	m := reliableModel()
	m.PerHopDelivery = 0.5
	lost, delivered := 0, 0
	rng := field.NewRand(4)
	for i := 0; i < 2000; i++ {
		d, err := n.Send(7, 0, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		switch d.Outcome {
		case Lost:
			lost++
		case Delivered, Late:
			delivered++
		}
	}
	// P[all 7 hops succeed first try] = 0.5^7 ~ 0.008.
	if delivered > 80 {
		t.Errorf("delivered %d of 2000 on a 0.5-loss channel without retries", delivered)
	}
	if lost == 0 {
		t.Error("expected losses on a 0.5-loss channel")
	}
}

func TestSendRetriesRecoverLosses(t *testing.T) {
	n := mustNetwork(t, line(8, 10), 15, geom.Square(100))
	base := reliableModel()
	base.PerHopDelivery = 0.5
	retry := base
	retry.MaxRetries = 6
	retry.Backoff = time.Millisecond

	deliveredNoRetry, deliveredRetry := 0, 0
	rngA, rngB := field.NewRand(5), field.NewRand(6)
	for i := 0; i < 1000; i++ {
		d, err := n.Send(7, 0, base, rngA)
		if err != nil {
			t.Fatal(err)
		}
		if d.Outcome != Lost {
			deliveredNoRetry++
		}
		d, err = n.Send(7, 0, retry, rngB)
		if err != nil {
			t.Fatal(err)
		}
		if d.Outcome != Lost {
			deliveredRetry++
		}
	}
	// With 7 attempts per hop, P[hop fails] = 0.5^7 < 1%, so nearly every
	// report survives all 7 hops.
	if deliveredRetry < 900 {
		t.Errorf("retries delivered only %d of 1000", deliveredRetry)
	}
	if deliveredRetry <= deliveredNoRetry {
		t.Errorf("retries (%d) should beat no retries (%d)", deliveredRetry, deliveredNoRetry)
	}
}

func TestBackoffLatencyAccounted(t *testing.T) {
	// A 2-node network with a channel that fails deterministically often
	// enough is hard to script; instead verify the accounting arithmetic on
	// a perfect channel with forced attempts via PerHopDelivery = 1 and
	// MaxRetries irrelevant, then spot-check the exponential-backoff sum on
	// a lossy run.
	n := mustNetwork(t, line(2, 10), 15, geom.Square(100))
	m := reliableModel()
	m.PerHopDelivery = 0.01
	m.MaxRetries = 3
	m.Backoff = 2 * time.Second
	m.PerHop = time.Second
	rng := field.NewRand(7)
	for i := 0; i < 200; i++ {
		d, err := n.Send(1, 0, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		if d.Outcome == Lost && d.Attempts == 4 {
			// 4 attempts at 1s each + backoffs 2s + 4s + 8s = 18s.
			if d.Latency != 18*time.Second {
				t.Fatalf("lost after 4 attempts: latency %v, want 18s", d.Latency)
			}
			return
		}
	}
	t.Skip("no fully exhausted hop observed; loosen the channel")
}

// TestRouteRepairsGreedyStuck reproduces the netsim_test.go void topology:
// greedy forwarding cannot leave the source, but Route recovers with the
// BFS detour, exercising the ErrGreedyStuck path end to end.
func TestRouteRepairsGreedyStuck(t *testing.T) {
	pts := []geom.Point{
		{X: 0, Y: 0},   // 0 src
		{X: 0, Y: 10},  // 1 detour up
		{X: 10, Y: 14}, // 2 detour across
		{X: 20, Y: 10}, // 3 detour down
		{X: 20, Y: 0},  // 4 dst
	}
	n := mustNetwork(t, pts, 11, geom.Rect{MinX: -5, MinY: -5, MaxX: 30, MaxY: 30})
	if _, err := n.GreedyRoute(0, 4); !errors.Is(err, ErrGreedyStuck) {
		t.Fatalf("precondition: greedy should be stuck, got %v", err)
	}
	path, rerouted, err := n.Route(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !rerouted {
		t.Error("route should report the greedy-stuck repair")
	}
	want := []int{0, 1, 2, 3, 4}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}

	// And a Send over the repaired route delivers.
	d, err := n.Send(0, 4, reliableModel(), field.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	if d.Outcome != Delivered || !d.Rerouted || d.Hops != 4 {
		t.Errorf("send over repaired route = %+v", d)
	}
}

// TestSendUnreachableIsLost exercises the ErrUnreachable path: a
// partitioned network loses the report instead of erroring.
func TestSendUnreachableIsLost(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 80, Y: 0}, {X: 90, Y: 0}}
	n := mustNetwork(t, pts, 15, geom.Square(100))
	if n.Components() != 2 {
		t.Fatalf("precondition: want a partitioned network, got %d components", n.Components())
	}
	if _, err := n.ShortestPath(0, 3); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("shortest path across partition: %v, want ErrUnreachable", err)
	}
	d, err := n.Send(0, 3, reliableModel(), field.NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	if d.Outcome != Lost {
		t.Errorf("outcome = %v, want lost", d.Outcome)
	}
}

func TestShortestPathMatchesShortestHops(t *testing.T) {
	bounds := geom.Square(32000)
	pts, err := field.Uniform(150, bounds, field.NewRand(10))
	if err != nil {
		t.Fatal(err)
	}
	n := mustNetwork(t, pts, 6000, bounds)
	for dst := 1; dst < 40; dst++ {
		hops, err := shortestHops(n, 0, dst)
		if errors.Is(err, ErrUnreachable) {
			if _, err := n.ShortestPath(0, dst); !errors.Is(err, ErrUnreachable) {
				t.Fatalf("dst %d: hops unreachable but path found", dst)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		path, err := n.ShortestPath(0, dst)
		if err != nil {
			t.Fatal(err)
		}
		if len(path)-1 != hops {
			t.Errorf("dst %d: path length %d, shortest hops %d", dst, len(path)-1, hops)
		}
		if path[0] != 0 || path[len(path)-1] != dst {
			t.Errorf("dst %d: endpoints wrong: %v", dst, path)
		}
		// Every consecutive pair must be adjacent.
		for i := 1; i < len(path); i++ {
			if node(n, path[i-1]).Dist(node(n, path[i])) > 6000 {
				t.Errorf("dst %d: hop %d-%d not adjacent", dst, path[i-1], path[i])
			}
		}
	}
}

func TestSendIDValidation(t *testing.T) {
	n := mustNetwork(t, line(3, 10), 15, geom.Square(100))
	if _, err := n.Send(-1, 0, reliableModel(), field.NewRand(1)); err == nil {
		t.Error("negative src should fail")
	}
	bad := reliableModel()
	bad.PerHopDelivery = 2
	if _, err := n.Send(0, 2, bad, field.NewRand(1)); err == nil {
		t.Error("invalid model should fail")
	}
}
