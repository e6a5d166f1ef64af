package netsim

import (
	"fmt"
	"math/rand"

	"github.com/groupdetect/gbd/internal/geom"
)

// Test oracles: plain, allocation-happy reference versions of what the
// package computes in bulk or incrementally.

// node returns the position of node i.
func node(n *Network, i int) geom.Point { return n.idx.Point(i) }

// degree returns the number of neighbors of node i.
func degree(n *Network, i int) int { return len(n.neighbors(int32(i))) }

// shortestHops returns the minimum hop count from src to dst by a BFS of
// its own, stopping at dst.
func shortestHops(n *Network, src, dst int) (int, error) {
	if err := n.checkIDs(src, dst); err != nil {
		return 0, err
	}
	if src == dst {
		return 0, nil
	}
	if !n.Connected(src, dst) {
		return 0, fmt.Errorf("node %d to %d: %w", src, dst, ErrUnreachable)
	}
	dist := make([]int, n.Len())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{int32(src)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range n.neighbors(u) {
			if dist[v] >= 0 {
				continue
			}
			dist[v] = dist[u] + 1
			if int(v) == dst {
				return dist[v], nil
			}
			queue = append(queue, v)
		}
	}
	return 0, fmt.Errorf("node %d to %d: %w", src, dst, ErrUnreachable)
}

// subset returns the induced sub-network of the nodes with keep[i] true,
// rebuilt from scratch, along with the mapping from new node ids to
// original ids: the kill-and-rebuild path a Routing alive mask replaces.
func subset(n *Network, keep []bool, bounds geom.Rect) (*Network, []int, error) {
	if len(keep) != n.Len() {
		return nil, nil, fmt.Errorf("keep mask length %d, want %d: %w", len(keep), n.Len(), ErrNetwork)
	}
	var pts []geom.Point
	var mapping []int
	for i, k := range keep {
		if k {
			pts = append(pts, node(n, i))
			mapping = append(mapping, i)
		}
	}
	sub, err := New(pts, n.commRange, bounds)
	if err != nil {
		return nil, nil, err
	}
	return sub, mapping, nil
}

// randomFailures returns a keep mask where each node independently
// survives with probability survive, except the nodes listed in protect
// (e.g. the base station), which always survive.
func randomFailures(nodes int, survive float64, rng *rand.Rand, protect ...int) ([]bool, error) {
	if survive < 0 || survive > 1 {
		return nil, fmt.Errorf("survival probability %v: %w", survive, ErrNetwork)
	}
	if nodes < 0 {
		return nil, fmt.Errorf("nodes = %d: %w", nodes, ErrNetwork)
	}
	keep := make([]bool, nodes)
	for i := range keep {
		keep[i] = rng.Float64() < survive
	}
	for _, p := range protect {
		if p < 0 || p >= nodes {
			return nil, fmt.Errorf("protected node %d out of range: %w", p, ErrNetwork)
		}
		keep[p] = true
	}
	return keep, nil
}
