// Package netsim models the multi-hop communication substrate the paper
// assumes but does not simulate: sensors form a unit-disk graph over their
// communication range and forward detection reports to a base station with
// greedy geographic forwarding (GF/GPSR-style). The paper argues that with a
// 6 km communication range every report reaches the base within one
// 1-minute sensing period (at most ~6 hops); this package lets experiments
// verify that claim for any deployment instead of assuming it.
package netsim

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
)

// ErrNetwork reports invalid network construction arguments.
var ErrNetwork = errors.New("netsim: invalid network")

// ErrUnreachable reports that no route exists.
var ErrUnreachable = errors.New("netsim: destination unreachable")

// ErrGreedyStuck reports a greedy-forwarding local minimum (a void with no
// neighbor closer to the destination).
var ErrGreedyStuck = errors.New("netsim: greedy forwarding stuck in local minimum")

// Network is a static unit-disk communication graph over node positions.
//
// The graph is built lazily, because a trial routes only the handful of
// sensors that report: New records the nodes in a spatial index and
// nothing else. A node's neighbor list is filled on first use with one
// circle query; the whole-graph operations (components, BFS hop counts,
// Delivery) instead fill every list at once with a single ordered pair
// sweep. Both fills produce the same lists in the same order (see
// field.Index.Pairs), so no result depends on which one ran.
//
// Every method is safe for concurrent use except Rebuild, which must not
// overlap any other call on the network or on a Routing built over it.
type Network struct {
	idx       field.Index // the node positions, indexed on a commRange grid
	commRange float64

	mu    sync.Mutex  // guards the lazy fills and routes
	adj   [][]int32   // per-node neighbor lists; nil until filled
	swept atomic.Bool // every list holds the pair sweep's fill
	lazy  []int32     // backing of the lists filled one node at a time
	csr   []int32     // backing of the pair sweep's lists
	query []int       // circle-query buffer
	comp  []int       // connected component id per node, once nComp >= 0
	nComp int

	routes map[int]*Routing // lazily built all-alive tables, keyed by base
}

// noNeighbors is the filled list of an isolated node, distinct from the
// nil that marks an unfilled one.
var noNeighbors = []int32{}

// CenterNode returns the node nearest the center of bounds (the lowest
// id on ties, 0 when there are no nodes): the base-station site the
// simulators and audits use.
func CenterNode(nodes []geom.Point, bounds geom.Rect) int {
	center := geom.Point{X: (bounds.MinX + bounds.MaxX) / 2, Y: (bounds.MinY + bounds.MaxY) / 2}
	base := 0
	for i, s := range nodes {
		if s.Dist(center) < nodes[base].Dist(center) {
			base = i
		}
	}
	return base
}

// New builds the unit-disk graph: nodes are adjacent when within commRange
// of each other. bounds must contain the deployment (it sizes the internal
// spatial index).
func New(nodes []geom.Point, commRange float64, bounds geom.Rect) (*Network, error) {
	n := new(Network)
	if err := n.Rebuild(nodes, commRange, bounds); err != nil {
		return nil, err
	}
	return n, nil
}

// Rebuild re-aims the network at a new deployment in place, reusing its
// storage, so a recycled Network keeps per-trial graph builds off the
// heap. It invalidates every Routing built over n; rebuild those too.
func (n *Network) Rebuild(nodes []geom.Point, commRange float64, bounds geom.Rect) error {
	if commRange <= 0 || math.IsNaN(commRange) {
		return fmt.Errorf("comm range %v: %w", commRange, ErrNetwork)
	}
	if bounds.Area() <= 0 {
		return fmt.Errorf("empty bounds: %w", ErrNetwork)
	}
	if err := n.idx.Rebuild(nodes, bounds, commRange); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.commRange = commRange
	if cap(n.adj) < len(nodes) {
		n.adj = make([][]int32, len(nodes))
	} else {
		n.adj = n.adj[:len(nodes)]
		clear(n.adj)
	}
	n.swept.Store(false)
	n.lazy = n.lazy[:0]
	n.nComp = -1
	clear(n.routes)
	return nil
}

// neighbors returns node i's neighbor list, filling it on first use with
// one circle query. QueryCircle reports ids in the index's cell-scan
// order, the order the pair sweep fills lists in, and includes i itself.
func (n *Network) neighbors(i int32) []int32 {
	if n.swept.Load() {
		return n.adj[i]
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if l := n.adj[i]; l != nil {
		return l
	}
	n.query = n.idx.QueryCircle(n.idx.Point(int(i)), n.commRange, n.query[:0])
	lo := len(n.lazy)
	for _, j := range n.query {
		if j != int(i) {
			n.lazy = append(n.lazy, int32(j))
		}
	}
	l := noNeighbors
	if hi := len(n.lazy); hi > lo {
		l = n.lazy[lo:hi:hi]
	}
	n.adj[i] = l
	return l
}

// sweep fills every neighbor list at once and returns them. After the
// first sweep the lists never change until Rebuild, so callers read them
// without the lock.
func (n *Network) sweep() [][]int32 {
	if !n.swept.Load() {
		n.mu.Lock()
		if !n.swept.Load() {
			n.sweepLocked()
			n.swept.Store(true)
		}
		n.mu.Unlock()
	}
	return n.adj
}

// sweepLocked enumerates each within-range pair once; the stream's
// ordering guarantee (see field.Index.Pairs) means one in-order sweep
// fills every node's list in exactly the order a QueryCircle per node
// produces, at half the distance tests.
func (n *Network) sweepLocked() {
	sc := buildPool.Get().(*buildScratch)
	defer buildPool.Put(sc)
	pairs := n.idx.Pairs(n.commRange, sc.pairs[:0])
	sc.pairs = pairs
	nn := n.Len()
	if cap(sc.starts) < nn+1 {
		sc.starts = make([]int32, nn+1)
	} else {
		sc.starts = sc.starts[:nn+1]
		clear(sc.starts)
	}
	starts := sc.starts
	for _, e := range pairs {
		starts[e[0]+1]++
		starts[e[1]+1]++
	}
	for i := 0; i < nn; i++ {
		starts[i+1] += starts[i]
	}
	// Neighbor lists share one backing array; starts[i] is node i's fill
	// cursor and ends at node i's list end.
	if cap(n.csr) < int(starts[nn]) {
		n.csr = make([]int32, starts[nn])
	}
	backing := n.csr[:starts[nn]]
	for _, e := range pairs {
		backing[starts[e[0]]] = e[1]
		starts[e[0]]++
		backing[starts[e[1]]] = e[0]
		starts[e[1]]++
	}
	lo := int32(0)
	for i := 0; i < nn; i++ {
		hi := starts[i]
		n.adj[i] = noNeighbors
		if hi > lo {
			n.adj[i] = backing[lo:hi:hi]
		}
		lo = hi
	}
}

// buildScratch recycles the pair sweep's transient state across sweeps.
type buildScratch struct {
	pairs  [][2]int32
	starts []int32
}

var buildPool = sync.Pool{New: func() any { return new(buildScratch) }}

// routePool recycles Delivery's routing tables across calls.
var routePool = sync.Pool{New: func() any { return new(Routing) }}

// components returns the component id per node and the component count,
// computing them on first use.
func (n *Network) components() ([]int, int) {
	adj := n.sweep()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.nComp >= 0 {
		return n.comp, n.nComp
	}
	nn := n.Len()
	if cap(n.comp) < nn {
		n.comp = make([]int, nn)
	}
	n.comp = n.comp[:nn]
	for i := range n.comp {
		n.comp[i] = -1
	}
	id := 0
	queue := make([]int32, 0, nn)
	for i := range n.comp {
		if n.comp[i] >= 0 {
			continue
		}
		n.comp[i] = id
		queue = append(queue[:0], int32(i))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range adj[u] {
				if n.comp[v] < 0 {
					n.comp[v] = id
					queue = append(queue, v)
				}
			}
		}
		id++
	}
	n.nComp = id
	return n.comp, n.nComp
}

// Len returns the number of nodes.
func (n *Network) Len() int { return n.idx.Len() }

// Components returns the number of connected components (0 for an empty
// network).
func (n *Network) Components() int {
	_, k := n.components()
	return k
}

// Connected reports whether a and b are in the same component.
func (n *Network) Connected(a, b int) bool {
	comp, _ := n.components()
	return comp[a] == comp[b]
}

// GreedyRoute returns the node sequence of greedy geographic forwarding
// from src to dst: each hop goes to the neighbor strictly closest to the
// destination. It fails with ErrGreedyStuck at a local minimum (the
// situation GPSR's perimeter mode repairs; ShortestPath finds the
// detour when one exists).
func (n *Network) GreedyRoute(src, dst int) ([]int, error) {
	if err := n.checkIDs(src, dst); err != nil {
		return nil, err
	}
	path := []int{src}
	cur := src
	goal := n.idx.Point(dst)
	for cur != dst {
		best := -1
		bestD := n.idx.Point(cur).Dist2(goal)
		for _, v := range n.neighbors(int32(cur)) {
			if d := n.idx.Point(int(v)).Dist2(goal); d < bestD {
				bestD = d
				best = int(v)
			}
		}
		if best < 0 {
			return path, fmt.Errorf("at node %d toward %d: %w", cur, dst, ErrGreedyStuck)
		}
		cur = best
		path = append(path, cur)
		if len(path) > n.Len() {
			return path, fmt.Errorf("routing loop toward %d: %w", dst, ErrGreedyStuck)
		}
	}
	return path, nil
}

func (n *Network) checkIDs(ids ...int) error {
	for _, id := range ids {
		if id < 0 || id >= n.Len() {
			return fmt.Errorf("node id %d out of range [0,%d): %w", id, n.Len(), ErrNetwork)
		}
	}
	return nil
}

// DeliveryStats summarizes report delivery from every node to a base
// station.
type DeliveryStats struct {
	// Nodes is the number of nodes evaluated (excluding the base).
	Nodes int
	// Reachable counts nodes with any multi-hop path to the base.
	Reachable int
	// GreedyOK counts nodes whose greedy route succeeds without perimeter
	// recovery.
	GreedyOK int
	// MaxHops and MeanHops summarize shortest-path hop counts over
	// reachable nodes.
	MaxHops  int
	MeanHops float64
	// WithinBudget counts reachable nodes whose shortest path completes
	// within the latency budget.
	WithinBudget int
}

// Delivery evaluates delivery of a report from every node to the base
// station with the given per-hop latency against a total budget (the
// sensing period). This is the paper's "6-hop end-to-end communication can
// be easily finished within a single sensing period" check, made
// quantitative.
func (n *Network) Delivery(base int, perHop, budget time.Duration) (DeliveryStats, error) {
	if err := n.checkIDs(base); err != nil {
		return DeliveryStats{}, err
	}
	if perHop <= 0 || budget <= 0 {
		return DeliveryStats{}, fmt.Errorf("perHop %v, budget %v: %w", perHop, budget, ErrNetwork)
	}
	// An all-alive routing table toward the base answers both questions:
	// its BFS gives every shortest hop count, and its memoized greedy
	// walks visit each node once instead of once per source. The table
	// is pooled because the fault-injection benchmarks evaluate Delivery
	// per trial.
	r := routePool.Get().(*Routing)
	defer func() {
		r.net = nil
		routePool.Put(r)
	}()
	if err := r.Rebuild(n, base, nil); err != nil {
		return DeliveryStats{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	hops := r.bfsLocked()
	stats := DeliveryStats{Nodes: n.Len() - 1}
	var hopSum int
	maxHops := int(budget / perHop)
	for i, h32 := range hops {
		h := int(h32)
		if i == base || h < 0 {
			continue
		}
		stats.Reachable++
		hopSum += h
		if h > stats.MaxHops {
			stats.MaxHops = h
		}
		if h <= maxHops {
			stats.WithinBudget++
		}
		if r.greedyHopsLocked(int32(i)) >= 0 {
			stats.GreedyOK++
		}
	}
	if stats.Reachable > 0 {
		stats.MeanHops = float64(hopSum) / float64(stats.Reachable)
	}
	return stats, nil
}

// HopsFrom returns the shortest hop count from base to every node with a
// single BFS: hops[i] is -1 for nodes disconnected from base.
func (n *Network) HopsFrom(base int) ([]int, error) {
	if err := n.checkIDs(base); err != nil {
		return nil, err
	}
	adj := n.sweep()
	hops := make([]int, n.Len())
	for i := range hops {
		hops[i] = -1
	}
	hops[base] = 0
	queue := make([]int32, 1, n.Len())
	queue[0] = int32(base)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range adj[u] {
			if hops[v] < 0 {
				hops[v] = hops[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return hops, nil
}
