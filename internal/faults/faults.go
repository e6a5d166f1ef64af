// Package faults injects node failures into a deployment. The paper assumes
// every deployed sensor stays alive for the whole mission; real sparse
// deployments lose nodes to battery exhaustion, hardware death and localized
// events (jamming, flooding). Each model here turns a deployment into a
// deterministic, seedable death column — the first period each node is
// dead in — that the simulator and the network layer consume: a dead
// sensor neither senses nor relays.
//
// All models are permanent-death models: once a node dies it stays dead, so
// one death period per node describes the whole mission.
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/groupdetect/gbd/internal/geom"
)

// ErrModel reports an invalid failure model.
var ErrModel = errors.New("faults: invalid failure model")

// Model draws when each node of a deployment dies.
type Model interface {
	// Deaths returns, in dst resized to len(nodes), the death column of a
	// mission of periods sensing periods: node i is dead in period t
	// (1-based) exactly when t >= deaths[i], and deaths[i] == periods+1
	// means it survives the mission. bounds is the deployment field (used
	// by spatially correlated models); rng supplies the randomness, so a
	// model is deterministic per (deployment, rng state).
	Deaths(dst []int, nodes []geom.Point, bounds geom.Rect, periods int, rng *rand.Rand) ([]int, error)
}

func checkPeriods(periods int) error {
	if periods < 1 {
		return fmt.Errorf("periods = %d must be >= 1: %w", periods, ErrModel)
	}
	return nil
}

// survivors returns dst resized to n with every node surviving a mission
// of periods.
func survivors(dst []int, n, periods int) []int {
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = periods + 1
	}
	return dst
}

// None is the paper's assumption: every node alive for the whole mission.
type None struct{}

// Deaths implements Model.
func (None) Deaths(dst []int, nodes []geom.Point, _ geom.Rect, periods int, _ *rand.Rand) ([]int, error) {
	if err := checkPeriods(periods); err != nil {
		return nil, err
	}
	return survivors(dst, len(nodes), periods), nil
}

// Bernoulli kills each node independently with probability DeadFrac before
// the mission starts — the classic "a fraction f of the deployment never
// reports" model. Its analytical mirror is the effective density
// n' = n*(1-f) (equivalently, thinning Pd by 1-f).
type Bernoulli struct {
	// DeadFrac is the independent per-node death probability in [0, 1].
	DeadFrac float64
}

// Deaths implements Model.
func (b Bernoulli) Deaths(dst []int, nodes []geom.Point, _ geom.Rect, periods int, rng *rand.Rand) ([]int, error) {
	if b.DeadFrac < 0 || b.DeadFrac > 1 || math.IsNaN(b.DeadFrac) {
		return nil, fmt.Errorf("dead fraction %v must be in [0, 1]: %w", b.DeadFrac, ErrModel)
	}
	if err := checkPeriods(periods); err != nil {
		return nil, err
	}
	dst = survivors(dst, len(nodes), periods)
	for i := range dst {
		if rng.Float64() < b.DeadFrac {
			dst[i] = 1
		}
	}
	return dst, nil
}

// Lifetime is a per-period battery/hardware hazard: each node alive at the
// start of a period dies during it with probability Hazard, independently.
// A node alive in period t survives to period t+k with probability
// (1-Hazard)^k, the geometric lifetime model.
type Lifetime struct {
	// Hazard is the per-period death probability in [0, 1].
	Hazard float64
	// InitialDeadFrac optionally kills a fraction before the mission, so a
	// campaign can start from an already-degraded deployment.
	InitialDeadFrac float64
}

// Deaths implements Model. The draws run period by period, one per node
// still alive: the initial kills first, then each period's hazard.
func (l Lifetime) Deaths(dst []int, nodes []geom.Point, _ geom.Rect, periods int, rng *rand.Rand) ([]int, error) {
	if l.Hazard < 0 || l.Hazard > 1 || math.IsNaN(l.Hazard) {
		return nil, fmt.Errorf("hazard %v must be in [0, 1]: %w", l.Hazard, ErrModel)
	}
	if l.InitialDeadFrac < 0 || l.InitialDeadFrac > 1 || math.IsNaN(l.InitialDeadFrac) {
		return nil, fmt.Errorf("initial dead fraction %v must be in [0, 1]: %w", l.InitialDeadFrac, ErrModel)
	}
	if err := checkPeriods(periods); err != nil {
		return nil, err
	}
	dst = survivors(dst, len(nodes), periods)
	for i := range dst {
		if rng.Float64() < l.InitialDeadFrac {
			dst[i] = 1
		}
	}
	for t := 1; t <= periods; t++ {
		for i, d := range dst {
			if d > periods && rng.Float64() < l.Hazard {
				dst[i] = t
			}
		}
	}
	return dst, nil
}

// Blob is a spatially correlated failure: at period At, every node within
// Radius of a disaster center is destroyed permanently (jamming, flooding,
// shelling of a region). The center is drawn uniformly from bounds unless
// Center is set.
type Blob struct {
	// Radius is the destruction radius in meters.
	Radius float64
	// At is the 1-based period the event strikes; 0 means period 1.
	At int
	// Center, when non-nil, fixes the event location instead of drawing it
	// uniformly from the field.
	Center *geom.Point
}

// Deaths implements Model. The center is drawn even when Center is set,
// so fixing it does not shift the draws that follow.
func (b Blob) Deaths(dst []int, nodes []geom.Point, bounds geom.Rect, periods int, rng *rand.Rand) ([]int, error) {
	if !(b.Radius > 0) || math.IsInf(b.Radius, 0) {
		return nil, fmt.Errorf("blob radius %v must be positive and finite: %w", b.Radius, ErrModel)
	}
	if b.At < 0 {
		return nil, fmt.Errorf("blob period %d must be >= 0: %w", b.At, ErrModel)
	}
	if err := checkPeriods(periods); err != nil {
		return nil, err
	}
	at := max(b.At, 1)
	center := geom.Point{
		X: bounds.MinX + rng.Float64()*(bounds.MaxX-bounds.MinX),
		Y: bounds.MinY + rng.Float64()*(bounds.MaxY-bounds.MinY),
	}
	if b.Center != nil {
		center = *b.Center
	}
	dst = survivors(dst, len(nodes), periods)
	if at > periods {
		return dst, nil
	}
	r2 := b.Radius * b.Radius
	for i, p := range nodes {
		if p.Dist2(center) <= r2 {
			dst[i] = at
		}
	}
	return dst, nil
}

// Compose overlays several failure models: a node is alive only when alive
// under every component, so it dies at the earliest of its component
// deaths. Each component draws in turn, as if alone. Use it to combine,
// say, a battery hazard with a mid-mission jamming blob.
type Compose []Model

// Deaths implements Model.
func (c Compose) Deaths(dst []int, nodes []geom.Point, bounds geom.Rect, periods int, rng *rand.Rand) ([]int, error) {
	if len(c) == 0 {
		return nil, fmt.Errorf("empty composition: %w", ErrModel)
	}
	dst, err := c[0].Deaths(dst, nodes, bounds, periods, rng)
	if err != nil {
		return nil, err
	}
	var next []int
	for _, m := range c[1:] {
		if next, err = m.Deaths(next, nodes, bounds, periods, rng); err != nil {
			return nil, err
		}
		for i, d := range next {
			dst[i] = min(dst[i], d)
		}
	}
	return dst, nil
}
