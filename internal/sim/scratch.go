package sim

import (
	"math/rand"
	"sync"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
)

// trialScratch is the per-worker arena of the trial hot path: everything a
// trial needs that would otherwise be reallocated per trial — the RNG, the
// deployment, the spatial indexes, the relay network, the period
// counters, and the query buffer. Workers check one out per trial from
// scratchPool, so the storage survives across trials (and across Run
// calls, which benchmark loops rely on) without any cross-worker sharing.
//
// Nothing in a scratch may escape into results: detailed trials copy the
// deployment out before the scratch returns to the pool.
type trialScratch struct {
	stream    *field.Stream
	sensors   []geom.Point
	idx       []field.Index // one per sensor class
	relay     relayState    // the relay network when CommRange is set
	perPeriod []int         // per-period report arrivals, 1-based
	buf       []int         // spatial-query result buffer
}

var scratchPool = sync.Pool{
	New: func() any {
		scratchNews.Inc()
		return &trialScratch{stream: field.NewStream(), buf: make([]int, 0, 16)}
	},
}

// getScratch checks a scratch out of the pool; gets minus news is the
// number of pooled reuses.
func getScratch() *trialScratch {
	scratchGets.Inc()
	return scratchPool.Get().(*trialScratch)
}

// deploy draws the fleet class by class into s.sensors, class c's ids
// following class c-1's, and indexes each class on its own grid.
func (s *trialScratch) deploy(fleet []detect.SensorClass, bounds geom.Rect, rng *rand.Rand) error {
	if len(s.idx) < len(fleet) {
		s.idx = make([]field.Index, len(fleet))
	}
	s.sensors = s.sensors[:0]
	for c, cl := range fleet {
		off := len(s.sensors)
		var err error
		if s.sensors, err = field.AppendUniform(s.sensors, cl.Count, bounds, rng); err != nil {
			return err
		}
		if err := s.idx[c].Rebuild(s.sensors[off:], bounds, field.CellSize(cl.Rs, bounds.MaxX-bounds.MinX)); err != nil {
			return err
		}
	}
	return nil
}

// ints returns s resized to n and zeroed, reusing the backing array when it
// is large enough.
func ints(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
