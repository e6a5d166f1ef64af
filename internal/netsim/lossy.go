package netsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// LossModel describes an unreliable multi-hop channel: each hop's
// transmission succeeds with probability PerHopDelivery per attempt, failed
// attempts are retransmitted up to MaxRetries times with exponential
// backoff, and the cumulative latency is judged against Budget (normally
// the sensing period). The paper assumes PerHopDelivery = 1 and instant
// forwarding; this model quantifies what happens when that does not hold.
type LossModel struct {
	// PerHopDelivery is the per-attempt per-hop success probability in
	// (0, 1]. (A channel that never delivers is a dead network, not a lossy
	// one — model that with faults instead.)
	PerHopDelivery float64
	// MaxRetries bounds retransmissions per hop after the first attempt.
	MaxRetries int
	// PerHop is the latency of one transmission attempt.
	PerHop time.Duration
	// Backoff is the wait before retry r: Backoff * 2^(r-1). Zero means
	// retries are immediate.
	Backoff time.Duration
	// Budget is the end-to-end latency budget; a report that arrives later
	// is Late rather than Delivered. Normally the sensing period.
	Budget time.Duration
}

// Validate checks the model ranges.
func (m LossModel) Validate() error {
	switch {
	case !(m.PerHopDelivery > 0) || m.PerHopDelivery > 1 || math.IsNaN(m.PerHopDelivery):
		return fmt.Errorf("per-hop delivery probability %v must be in (0, 1]: %w", m.PerHopDelivery, ErrNetwork)
	case m.MaxRetries < 0:
		return fmt.Errorf("max retries %d must be >= 0: %w", m.MaxRetries, ErrNetwork)
	case m.PerHop <= 0:
		return fmt.Errorf("per-hop latency %v must be positive: %w", m.PerHop, ErrNetwork)
	case m.Backoff < 0:
		return fmt.Errorf("backoff %v must be >= 0: %w", m.Backoff, ErrNetwork)
	case m.Budget <= 0:
		return fmt.Errorf("latency budget %v must be positive: %w", m.Budget, ErrNetwork)
	}
	return nil
}

// Outcome classifies one report's delivery.
type Outcome int

const (
	// Delivered means the report reached the base within the budget.
	Delivered Outcome = iota + 1
	// Late means the report reached the base after the budget elapsed.
	Late
	// Lost means a hop exhausted its retransmissions, or no route to the
	// base existed at all.
	Lost
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case Late:
		return "late"
	case Lost:
		return "lost"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Delivery is the result of sending one report.
type Delivery struct {
	// Outcome classifies the attempt.
	Outcome Outcome
	// Hops is the route length actually used (0 when src == dst or no
	// route existed).
	Hops int
	// Attempts counts transmissions across all hops, retries included.
	Attempts int
	// Latency is the cumulative time spent forwarding (including the
	// attempts of a hop that ultimately lost the report).
	Latency time.Duration
	// Rerouted reports that greedy forwarding hit a local minimum and the
	// route was repaired with the shortest path (GPSR perimeter-mode
	// stand-in).
	Rerouted bool
}

// PeriodsLate converts the delivery latency into whole sensing periods of
// delay: 0 means the report arrived within the period that generated it.
func (d Delivery) PeriodsLate(period time.Duration) int {
	if period <= 0 || d.Latency <= period {
		return 0
	}
	return int((d.Latency - 1) / period)
}

// ShortestPath returns the node sequence of a minimum-hop route from src to
// dst (BFS with parent pointers). It is the repair route used when greedy
// forwarding gets stuck.
func (n *Network) ShortestPath(src, dst int) ([]int, error) {
	if err := n.checkIDs(src, dst); err != nil {
		return nil, err
	}
	if src == dst {
		return []int{src}, nil
	}
	if !n.Connected(src, dst) {
		return nil, fmt.Errorf("node %d to %d: %w", src, dst, ErrUnreachable)
	}
	adj := n.sweep()
	parent := make([]int32, n.Len())
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = int32(src)
	queue := []int32{int32(src)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if parent[v] >= 0 {
				continue
			}
			parent[v] = u
			if int(v) == dst {
				// Walk parents back to src.
				var rev []int
				for cur := v; ; cur = parent[cur] {
					rev = append(rev, int(cur))
					if int(cur) == src {
						break
					}
				}
				path := make([]int, len(rev))
				for i := range rev {
					path[i] = rev[len(rev)-1-i]
				}
				return path, nil
			}
			queue = append(queue, v)
		}
	}
	return nil, fmt.Errorf("node %d to %d: %w", src, dst, ErrUnreachable)
}

// Route returns the forwarding path from src to dst: greedy geographic
// forwarding when it succeeds, otherwise the shortest-path repair (the
// detour GPSR's perimeter mode would find). rerouted reports which one was
// used. It fails with ErrUnreachable when no path exists at all.
func (n *Network) Route(src, dst int) (path []int, rerouted bool, err error) {
	path, err = n.GreedyRoute(src, dst)
	if err == nil {
		return path, false, nil
	}
	if !errors.Is(err, ErrGreedyStuck) {
		return nil, false, err
	}
	path, err = n.ShortestPath(src, dst)
	if err != nil {
		return nil, true, err
	}
	return path, true, nil
}

// Send simulates forwarding one report from src to base under the loss
// model: route (with greedy-stuck repair), then per-hop Bernoulli attempts
// with bounded exponential-backoff retransmission, classified against the
// latency budget. An unreachable base loses the report rather than failing
// the call — partitions are an expected failure mode, not a usage error.
// Routes come from a per-base table built on first use, so repeated sends
// to the same base cost O(route length), not a graph walk each.
func (n *Network) Send(src, base int, m LossModel, rng *rand.Rand) (Delivery, error) {
	if err := n.checkIDs(src, base); err != nil {
		return Delivery{}, err
	}
	r, err := n.routing(base)
	if err != nil {
		return Delivery{}, err
	}
	return r.Send(src, m, rng)
}
