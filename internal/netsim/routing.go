package netsim

import (
	"fmt"
	"math/rand"
	"sync"
)

// ghopsUnknown marks a greedy walk length not yet memoized; -1 marks a walk
// that hits a local minimum before the base, or starts at a dead node.
const ghopsUnknown = -2

// Routing is a forwarding table from every node toward one base station
// over an optional alive mask: the greedy geographic walk length per node
// plus the BFS shortest-path hop counts (GPSR perimeter-repair stand-in).
// Send consults the table instead of re-walking the graph per report.
//
// The table fills on demand, like the Network under it: Reset records
// the alive mask, each node's greedy next hop is computed the first time
// a walk visits it (every node on a walk is memoized), and the BFS hop
// table is built only on the first stuck greedy walk or Hops call. A
// trial whose reporters all route greedily never touches the rest of the
// graph.
//
// The table reproduces Network.Send on the alive-induced subgraph draw for
// draw: the loss model consumes randomness only per hop attempted, greedy
// forwarding picks the strict-argmin neighbor in adjacency order (which an
// alive filter preserves), and BFS hop counts are unique, so the routed hop
// count — the only routing output the loss loop reads — is identical.
type Routing struct {
	mu      sync.Mutex
	net     *Network
	base    int
	alive   []bool  // the Reset mask, copied; nil means every node is alive
	mask    []bool  // storage for alive
	ghops   []int32 // memoized greedy walk length; ghopsUnknown unvisited
	hops    []int32 // BFS hop count to base over alive nodes; -1 unreachable
	hopsSet bool    // hops holds this mask epoch's BFS
	walk    []int32 // scratch for greedy memoization
	queue   []int32 // scratch for BFS
}

// NewRouting builds the forwarding table toward base over the nodes with
// alive[i] true (nil means every node is alive). The base must be alive.
func (n *Network) NewRouting(base int, alive []bool) (*Routing, error) {
	r := new(Routing)
	if err := r.Rebuild(n, base, alive); err != nil {
		return nil, err
	}
	return r, nil
}

// Rebuild re-aims the table at base on network n over the alive mask,
// reusing the table's storage, so a recycled Routing keeps per-trial
// routing off the heap.
func (r *Routing) Rebuild(n *Network, base int, alive []bool) error {
	if err := n.checkIDs(base); err != nil {
		return err
	}
	r.mu.Lock()
	r.net, r.base = n, base
	r.mu.Unlock()
	return r.Reset(alive)
}

// Base returns the base-station node id the table routes toward.
func (r *Routing) Base() int { return r.base }

// Hops returns the shortest alive-path hop count from src to the base, or
// -1 when src is unreachable.
func (r *Routing) Hops(src int) (int, error) {
	if err := r.net.checkIDs(src); err != nil {
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(r.bfsLocked()[src]), nil
}

// Reset re-aims the table at a new alive mask (nil means every node is
// alive), reusing the table's storage. This is the only cache
// invalidation: call it exactly when the mask epoch changes.
func (r *Routing) Reset(alive []bool) error {
	routingResets.Inc()
	nn := r.net.Len()
	if alive != nil {
		if len(alive) != nn {
			return fmt.Errorf("alive mask length %d, want %d: %w", len(alive), nn, ErrNetwork)
		}
		if !alive[r.base] {
			return fmt.Errorf("base station %d is dead in the alive mask: %w", r.base, ErrNetwork)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.alive = nil
	if alive != nil {
		r.mask = append(r.mask[:0], alive...)
		r.alive = r.mask
	}
	if cap(r.ghops) < nn {
		r.ghops = make([]int32, nn)
	}
	r.ghops = r.ghops[:nn]
	for i := range r.ghops {
		r.ghops[i] = ghopsUnknown
	}
	r.ghops[r.base] = 0
	r.hopsSet = false
	return nil
}

// isAlive reports whether node i relays under the table's mask.
func (r *Routing) isAlive(i int32) bool { return r.alive == nil || r.alive[i] }

// nextHop returns node i's greedy next hop: the alive neighbor strictly
// closest to the base (the first in adjacency order on ties), or -1 at a
// local minimum or a dead node.
func (r *Routing) nextHop(i int32) int32 {
	if !r.isAlive(i) {
		return -1
	}
	n := r.net
	goal := n.idx.Point(r.base)
	best := int32(-1)
	bestD := n.idx.Point(int(i)).Dist2(goal)
	for _, v := range n.neighbors(i) {
		if !r.isAlive(v) {
			continue
		}
		if d := n.idx.Point(int(v)).Dist2(goal); d < bestD {
			bestD = d
			best = v
		}
	}
	return best
}

// bfsLocked returns the BFS hop table, building it on first use in this
// mask epoch. A BFS reaches most of the graph, so it fills every
// neighbor list with the network's single pair sweep.
func (r *Routing) bfsLocked() []int32 {
	if r.hopsSet {
		return r.hops
	}
	adj := r.net.sweep()
	nn := r.net.Len()
	if cap(r.hops) < nn {
		r.hops = make([]int32, nn)
	}
	r.hops = r.hops[:nn]
	for i := range r.hops {
		r.hops[i] = -1
	}
	r.hops[r.base] = 0
	q := append(r.queue[:0], int32(r.base))
	for head := 0; head < len(q); head++ {
		u := q[head]
		for _, v := range adj[u] {
			if r.hops[v] >= 0 || !r.isAlive(v) {
				continue
			}
			r.hops[v] = r.hops[u] + 1
			q = append(q, v)
		}
	}
	r.queue = q[:0]
	r.hopsSet = true
	return r.hops
}

// greedyHopsLocked returns the greedy-forwarding walk length from src to
// the base, or -1 when the walk hits a local minimum first. The first
// call per node walks the next-hop chain, computing each hop as it goes,
// and memoizes every node on it; the walk cannot cycle because each hop
// is strictly closer to the base.
func (r *Routing) greedyHopsLocked(src int32) int32 {
	if g := r.ghops[src]; g != ghopsUnknown {
		return g
	}
	walk := r.walk[:0]
	g := int32(-1) // stuck, unless the walk reaches a memoized node
	for cur := src; ; {
		walk = append(walk, cur)
		next := r.nextHop(cur)
		if next < 0 {
			break
		}
		if known := r.ghops[next]; known != ghopsUnknown {
			g = known
			break
		}
		cur = next
	}
	for i := len(walk) - 1; i >= 0; i-- {
		if g >= 0 {
			g++
		}
		r.ghops[walk[i]] = g
	}
	r.walk = walk[:0]
	return r.ghops[src]
}

// Send forwards one report from src to the table's base under the loss
// model, exactly like Network.Send on the alive-induced subgraph: greedy
// route when it succeeds, BFS shortest-path repair when greedy is stuck,
// Lost when the base is unreachable, then per-hop Bernoulli attempts with
// bounded exponential-backoff retransmission against the latency budget.
func (r *Routing) Send(src int, m LossModel, rng *rand.Rand) (Delivery, error) {
	if err := r.net.checkIDs(src); err != nil {
		return Delivery{}, err
	}
	if err := m.Validate(); err != nil {
		return Delivery{}, err
	}
	if src == r.base {
		d := Delivery{Outcome: Delivered}
		recordDelivery(d)
		return d, nil
	}
	r.mu.Lock()
	gh := r.greedyHopsLocked(int32(src))
	bfs := int32(-1)
	if gh < 0 {
		bfs = r.bfsLocked()[src]
	}
	r.mu.Unlock()
	var d Delivery
	switch {
	case gh >= 0:
		d = Delivery{Hops: int(gh)}
	case bfs < 0:
		d = Delivery{Outcome: Lost, Rerouted: true}
		recordDelivery(d)
		return d, nil
	default:
		d = Delivery{Hops: int(bfs), Rerouted: true}
	}
	for hop := 0; hop < d.Hops; hop++ {
		sent := false
		for attempt := 0; attempt <= m.MaxRetries; attempt++ {
			if attempt > 0 {
				d.Latency += m.Backoff << (attempt - 1)
				sendRetransmissions.Inc()
			}
			d.Attempts++
			d.Latency += m.PerHop
			if rng.Float64() < m.PerHopDelivery {
				sent = true
				break
			}
		}
		if !sent {
			d.Outcome = Lost
			recordDelivery(d)
			return d, nil
		}
	}
	d.Outcome = Delivered
	if d.Latency > m.Budget {
		d.Outcome = Late
	}
	recordDelivery(d)
	return d, nil
}

// routing returns the lazily built all-alive forwarding table toward base,
// shared by every Send to that base on this network.
func (n *Network) routing(base int) (*Routing, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if r, ok := n.routes[base]; ok {
		return r, nil
	}
	r, err := n.NewRouting(base, nil)
	if err != nil {
		return nil, err
	}
	if n.routes == nil {
		n.routes = make(map[int]*Routing, 1)
	}
	n.routes[base] = r
	return r, nil
}
