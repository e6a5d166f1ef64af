package sim

import (
	"sync"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
	"github.com/groupdetect/gbd/internal/track"
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
	deaths    []int         // per-sensor death period under a fault model
	dying     []int         // per-period death counts, 1-based
	mask      []bool        // per-sensor alive mask of the current period
	arrived   []arrival     // arrived reports, kept for the gated decision
	inbox     []track.Report
}

// arrival is one report that reached the base, in period at.
type arrival struct {
	at     int
	report track.Report
}

// gatedDetection runs the gated base station: at the end of every period
// in which reports arrive, once at least K have, it applies track.Decide
// to everything arrived so far — in arrival order, generation order within
// a period — and returns the first period that detects (0 if none).
// arrivals holds the per-period counts of s.arrived.
func (s *trialScratch) gatedDetection(arrivals []int, p detect.Params) (int, error) {
	gate, err := track.NewGate(p.V, p.T, p.Rs)
	if err != nil {
		return 0, err
	}
	inbox := s.inbox[:0]
	defer func() { s.inbox = inbox[:0] }()
	for period := 1; period < len(arrivals); period++ {
		if arrivals[period] == 0 {
			continue // nothing new: the previous verdict stands
		}
		for _, a := range s.arrived {
			if a.at == period {
				inbox = append(inbox, a.report)
			}
		}
		if len(inbox) < p.K {
			continue
		}
		dec, err := track.Decide(inbox, p.K, p.M, gate, true)
		if err != nil {
			return 0, err
		}
		if dec.Detected {
			return period, nil
		}
	}
	return 0, nil
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

// deploy draws the fleet class by class into s.sensors from the stream
// s.stream was last positioned at, class c's ids following class c-1's,
// and indexes each class on its own grid.
func (s *trialScratch) deploy(fleet []detect.SensorClass, bounds geom.Rect) error {
	if len(s.idx) < len(fleet) {
		s.idx = make([]field.Index, len(fleet))
	}
	s.sensors = s.sensors[:0]
	for c, cl := range fleet {
		off := len(s.sensors)
		var err error
		if s.sensors, err = s.stream.AppendUniform(s.sensors, cl.Count, bounds); err != nil {
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

// bools returns s resized to n and set all true, reusing the backing
// array when it is large enough.
func bools(s []bool, n int) []bool {
	if cap(s) < n {
		s = make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = true
	}
	return s
}
