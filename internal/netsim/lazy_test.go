package netsim

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
)

// eagerAdj is the reference adjacency: every list materialized up front
// from one in-order sweep of the index's pair stream, the way the network
// was built before it went lazy.
func eagerAdj(t *testing.T, pts []geom.Point, commRange float64, bounds geom.Rect) [][]int32 {
	t.Helper()
	idx, err := field.NewIndex(pts, bounds, commRange)
	if err != nil {
		t.Fatal(err)
	}
	adj := make([][]int32, len(pts))
	for _, e := range idx.Pairs(commRange, nil) {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	return adj
}

// refAlive reports whether node i relays under mask (nil: all alive).
func refAlive(mask []bool, i int32) bool { return mask == nil || mask[i] }

// refBFS returns the hop count from every node to base over alive nodes.
func refBFS(adj [][]int32, base int, mask []bool) []int {
	hops := make([]int, len(adj))
	for i := range hops {
		hops[i] = -1
	}
	hops[base] = 0
	queue := []int32{int32(base)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if hops[v] < 0 && refAlive(mask, v) {
				hops[v] = hops[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return hops
}

// refGreedy walks greedy forwarding from src to base over alive nodes and
// returns its length, or -1 when it hits a local minimum or src is dead.
func refGreedy(adj [][]int32, pts []geom.Point, src, base int, mask []bool) int {
	if !refAlive(mask, int32(src)) {
		return -1
	}
	goal := pts[base]
	hops := 0
	for cur := src; cur != base; hops++ {
		best := -1
		bestD := pts[cur].Dist2(goal)
		for _, v := range adj[cur] {
			if d := pts[v].Dist2(goal); refAlive(mask, v) && d < bestD {
				bestD, best = d, int(v)
			}
		}
		if best < 0 {
			return -1
		}
		cur = best
	}
	return hops
}

// refSend is the reference delivery: the greedy route when it succeeds,
// the BFS repair when it is stuck, Lost when the base is unreachable, then
// the per-hop Bernoulli loss loop.
func refSend(greedy, bfs int, m LossModel, rng *rand.Rand) Delivery {
	d := Delivery{Hops: greedy}
	if greedy < 0 {
		if bfs < 0 {
			return Delivery{Outcome: Lost, Rerouted: true}
		}
		d = Delivery{Hops: bfs, Rerouted: true}
	}
	for hop := 0; hop < d.Hops; hop++ {
		sent := false
		for attempt := 0; attempt <= m.MaxRetries && !sent; attempt++ {
			if attempt > 0 {
				d.Latency += m.Backoff << (attempt - 1)
			}
			d.Attempts++
			d.Latency += m.PerHop
			sent = rng.Float64() < m.PerHopDelivery
		}
		if !sent {
			d.Outcome = Lost
			return d
		}
	}
	d.Outcome = Delivered
	if d.Latency > m.Budget {
		d.Outcome = Late
	}
	return d
}

// countingSource counts the draws a rand.Rand takes from it.
type countingSource struct {
	rand.Source64
	draws int
}

func (c *countingSource) Int63() int64   { c.draws++; return c.Source64.Int63() }
func (c *countingSource) Uint64() uint64 { c.draws++; return c.Source64.Uint64() }

func countingRand(seed int64) (*rand.Rand, *countingSource) {
	src := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
	return rand.New(src), src
}

func sameList(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lazyCase is one deployment of the differential test.
type lazyCase struct {
	name      string
	pts       []geom.Point
	commRange float64
	bounds    geom.Rect
}

// lazyCases draws random deployments from dense to sparse and
// disconnected, plus one with stacked duplicate positions (distance-0
// neighbors, self-exclusion by id).
func lazyCases(t *testing.T) []lazyCase {
	t.Helper()
	bounds := geom.Square(32000)
	var cases []lazyCase
	for i, c := range []struct {
		n         int
		commRange float64
	}{{240, 6000}, {180, 6000}, {120, 4500}, {60, 4000}, {40, 2500}} {
		pts, err := field.Uniform(c.n, bounds, field.NewRand(int64(40+i)))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, lazyCase{fmt.Sprintf("N=%d/r=%v", c.n, c.commRange), pts, c.commRange, bounds})
	}
	pts, err := field.Uniform(50, bounds, field.NewRand(49))
	if err != nil {
		t.Fatal(err)
	}
	pts = append(pts, pts[:15]...)
	cases = append(cases, lazyCase{"duplicates", pts, 5000, bounds})
	return cases
}

// TestLazyAdjacencyMatchesEager checks every lazily filled neighbor list,
// the pair-sweep fill, the components and the BFS hop counts against the
// eager reference.
func TestLazyAdjacencyMatchesEager(t *testing.T) {
	for _, c := range lazyCases(t) {
		ref := eagerAdj(t, c.pts, c.commRange, c.bounds)
		n := mustNetwork(t, c.pts, c.commRange, c.bounds)
		for _, i := range field.NewRand(1).Perm(len(c.pts)) {
			if got := n.neighbors(int32(i)); !sameList(got, ref[i]) {
				t.Fatalf("%s: lazy neighbors(%d) = %v, want %v", c.name, i, got, ref[i])
			}
		}
		if n.swept.Load() {
			t.Fatalf("%s: per-node fills triggered the pair sweep", c.name)
		}
		adj := n.sweep()
		for i := range ref {
			if !sameList(adj[i], ref[i]) {
				t.Fatalf("%s: swept list %d = %v, want %v", c.name, i, adj[i], ref[i])
			}
		}

		// Whole-graph operations on a fresh network sweep first.
		n = mustNetwork(t, c.pts, c.commRange, c.bounds)
		refComp := make([]int, len(c.pts))
		for i := range refComp {
			refComp[i] = -1
		}
		comps := 0
		for i := range c.pts {
			if refComp[i] >= 0 {
				continue
			}
			for j, h := range refBFS(ref, i, nil) {
				if h >= 0 {
					refComp[j] = comps
				}
			}
			comps++
		}
		if got := n.Components(); got != comps {
			t.Fatalf("%s: components = %d, want %d", c.name, got, comps)
		}
		for a := range c.pts {
			for b := range c.pts {
				if got, want := n.Connected(a, b), refComp[a] == refComp[b]; got != want {
					t.Fatalf("%s: Connected(%d, %d) = %v, want %v", c.name, a, b, got, want)
				}
			}
		}
		base := CenterNode(c.pts, c.bounds)
		hops, err := hopsFrom(n, base)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range refBFS(ref, base, nil) {
			if hops[i] != want {
				t.Fatalf("%s: hopsFrom[%d] = %d, want %d", c.name, i, hops[i], want)
			}
		}
	}
}

// checkRouting compares every Send of r, with its RNG draw count, and
// every Hops against the eager reference under mask. It returns how many
// sends were rerouted and how many of those found no route at all.
func checkRouting(t *testing.T, label string, r *Routing, ref [][]int32, pts []geom.Point, mask []bool, m LossModel, seed int64) (stuck, lost int) {
	t.Helper()
	base := r.Base()
	wantBFS := refBFS(ref, base, mask)
	for src := range pts {
		rngW, cw := countingRand(seed + int64(src))
		want := Delivery{Outcome: Delivered}
		if src != base {
			want = refSend(refGreedy(ref, pts, src, base, mask), wantBFS[src], m, rngW)
		}
		rngG, cg := countingRand(seed + int64(src))
		got, err := r.Send(src, m, rngG)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || cg.draws != cw.draws {
			t.Fatalf("%s src %d: Send = %+v after %d draws, want %+v after %d",
				label, src, got, cg.draws, want, cw.draws)
		}
		if got.Rerouted {
			stuck++
			if wantBFS[src] < 0 {
				lost++
			}
		}
	}
	for src, want := range wantBFS {
		if got, err := r.Hops(src); err != nil || got != want {
			t.Fatalf("%s: Hops(%d) = %d, %v, want %d", label, src, got, err, want)
		}
	}
	return stuck, lost
}

// TestLazyRoutingMatchesEager checks every Send outcome, with its RNG draw
// count, and every BFS hop count of the lazy routing table against the
// eager reference, under several alive masks, through Reset and through
// in-place Rebuilds of both the network and the table.
func TestLazyRoutingMatchesEager(t *testing.T) {
	m := LossModel{
		PerHopDelivery: 0.7,
		MaxRetries:     2,
		PerHop:         10 * time.Second,
		Backoff:        5 * time.Second,
		Budget:         time.Minute,
	}
	var net Network // recycled across deployments, like the simulator's
	var r Routing
	stuck, lost := 0, 0
	for ci, c := range lazyCases(t) {
		ref := eagerAdj(t, c.pts, c.commRange, c.bounds)
		base := CenterNode(c.pts, c.bounds)
		for mi, survive := range []float64{1, 0.8, 0.5} {
			var mask []bool
			if survive < 1 {
				var err error
				mask, err = randomFailures(len(c.pts), survive, field.NewRand(int64(10*ci+mi)), base)
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := net.Rebuild(c.pts, c.commRange, c.bounds); err != nil {
				t.Fatal(err)
			}
			if err := r.Rebuild(&net, base, mask); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s survive %v", c.name, survive)
			s, l := checkRouting(t, label, &r, ref, c.pts, mask, m, int64(1000*ci+100*mi))
			stuck, lost = stuck+s, lost+l
			// A Reset must forget the mask epoch's walks and BFS.
			if err := r.Reset(nil); err != nil {
				t.Fatal(err)
			}
			checkRouting(t, label+" reset", &r, ref, c.pts, nil, m, int64(7000+ci))
		}
	}
	if stuck == 0 || lost == 0 {
		t.Fatalf("cases exercised %d greedy voids and %d unreachable sources; want both", stuck, lost)
	}
}

// TestSendOnlyNeverSweeps asserts that greedy-routed sends fill only the
// lists their walks visit, while the first stuck walk sweeps the graph.
func TestSendOnlyNeverSweeps(t *testing.T) {
	// A 10x10 grid with diagonal links: greedy always makes progress
	// toward the center node.
	var pts []geom.Point
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			pts = append(pts, geom.Point{X: float64(x) * 1000, Y: float64(y) * 1000})
		}
	}
	bounds := geom.Rect{MinX: -1, MinY: -1, MaxX: 10000, MaxY: 10000}
	n := mustNetwork(t, pts, 1500, bounds)
	base := 55
	for _, src := range []int{0, 9, 90, 99, 54} {
		d, err := n.Send(src, base, reliableModel(), field.NewRand(1))
		if err != nil {
			t.Fatal(err)
		}
		if d.Outcome != Delivered || d.Rerouted {
			t.Fatalf("Send(%d) = %+v, want a greedy delivery", src, d)
		}
	}
	if n.swept.Load() {
		t.Fatal("greedy-only sends triggered the whole-graph sweep")
	}
	filled := 0
	for _, l := range n.adj {
		if l != nil {
			filled++
		}
	}
	if filled == 0 || filled == len(pts) {
		t.Fatalf("greedy-only sends filled %d of %d lists, want some but not all", filled, len(pts))
	}

	// The void topology: greedy cannot leave node 0, so Send repairs the
	// route with a BFS over the swept graph.
	void := []geom.Point{{X: 0, Y: 0}, {X: 0, Y: 10}, {X: 10, Y: 14}, {X: 20, Y: 10}, {X: 20, Y: 0}}
	v := mustNetwork(t, void, 11, geom.Rect{MinX: -5, MinY: -5, MaxX: 30, MaxY: 30})
	if d, err := v.Send(0, 4, reliableModel(), field.NewRand(1)); err != nil || !d.Rerouted {
		t.Fatalf("void Send = %+v, %v, want a rerouted delivery", d, err)
	}
	if !v.swept.Load() {
		t.Fatal("a stuck greedy walk must sweep the graph for its BFS repair")
	}
}

// TestConcurrentRoutingOnSharedNetwork runs Sends toward two bases, Hops
// and whole-graph calls concurrently on one shared network; run it with
// -race. Each goroutine's results must match a sequential run.
func TestConcurrentRoutingOnSharedNetwork(t *testing.T) {
	bounds := geom.Square(32000)
	pts, err := field.Uniform(150, bounds, field.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	m := LossModel{PerHopDelivery: 0.8, MaxRetries: 1, PerHop: 10 * time.Second, Budget: time.Minute}
	mask, err := randomFailures(len(pts), 0.8, field.NewRand(9), 7)
	if err != nil {
		t.Fatal(err)
	}
	// run drives one workload on n and returns what it observed.
	type workload func(n *Network, r *Routing) ([]Delivery, error)
	sendAll := func(base int) workload {
		return func(n *Network, _ *Routing) ([]Delivery, error) {
			rng := field.NewRand(int64(base))
			var out []Delivery
			for src := range pts {
				d, err := n.Send(src, base, m, rng)
				if err != nil {
					return nil, err
				}
				out = append(out, d)
			}
			return out, nil
		}
	}
	hopsAll := func(_ *Network, r *Routing) ([]Delivery, error) {
		var out []Delivery
		for src := len(pts) - 1; src >= 0; src-- {
			h, err := r.Hops(src)
			if err != nil {
				return nil, err
			}
			out = append(out, Delivery{Hops: h})
		}
		return out, nil
	}
	maskedSends := func(_ *Network, r *Routing) ([]Delivery, error) {
		rng := field.NewRand(3)
		var out []Delivery
		for src := range pts {
			if !mask[src] {
				continue
			}
			d, err := r.Send(src, m, rng)
			if err != nil {
				return nil, err
			}
			out = append(out, d)
		}
		return out, nil
	}
	whole := func(n *Network, _ *Routing) ([]Delivery, error) {
		stats, err := n.Delivery(0, 10*time.Second, time.Minute)
		return []Delivery{{Hops: n.Components()}, {Hops: stats.GreedyOK}}, err
	}
	loads := []workload{sendAll(0), sendAll(CenterNode(pts, bounds)), hopsAll, maskedSends, whole}

	setup := func() (*Network, *Routing) {
		n := mustNetwork(t, pts, 6000, bounds)
		r, err := n.NewRouting(7, mask)
		if err != nil {
			t.Fatal(err)
		}
		return n, r
	}
	want := make([][]Delivery, len(loads))
	for i, w := range loads {
		n, r := setup()
		if want[i], err = w(n, r); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 4; round++ {
		n, r := setup()
		got := make([][]Delivery, len(loads))
		errs := make([]error, len(loads))
		var wg sync.WaitGroup
		for i, w := range loads {
			wg.Add(1)
			go func(i int, w workload) {
				defer wg.Done()
				got[i], errs[i] = w(n, r)
			}(i, w)
		}
		wg.Wait()
		for i := range loads {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if len(got[i]) != len(want[i]) {
				t.Fatalf("round %d load %d: %d results, want %d", round, i, len(got[i]), len(want[i]))
			}
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("round %d load %d result %d: %+v, want %+v", round, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}
