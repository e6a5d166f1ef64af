package sim

import (
	"context"
	"fmt"

	"github.com/groupdetect/gbd/internal/geom"
	"github.com/groupdetect/gbd/internal/sensing"
	"github.com/groupdetect/gbd/internal/stats"
	"github.com/groupdetect/gbd/internal/sweep"
)

// maxSeparationAttempts bounds the rejection sampling of each further
// target's track against the separation constraint.
const maxSeparationAttempts = 10000

// multiSeparationError reports failure to place well-separated targets.
type multiSeparationError struct {
	targets int
	minSep  float64
}

func (e *multiSeparationError) Error() string {
	return fmt.Sprintf("sim: could not place %d tracks with separation %.0f m inside the field", e.targets, e.minSep)
}

// MultiResult summarizes a multi-target campaign.
type MultiResult struct {
	// Trials counts completed trials; Targets the targets per trial.
	Trials, Targets int
	// PerTarget[j] is the detection probability of target j.
	PerTarget []float64
	// AllDetected is the probability that every target was detected;
	// AnyDetected that at least one was.
	AllDetected, AnyDetected float64
	// CI is the 95% interval for the pooled per-target detection
	// probability.
	CI stats.Interval
}

// multiPartial is one worker's share of a multi-target campaign.
type multiPartial struct {
	detections []int // per target
	all, any   int
	// tracks and detected hold the current trial's tracks and per-target
	// outcomes, reused across the worker's trials.
	tracks   [][]geom.Point
	detected []bool
}

// RunMulti simulates several simultaneous targets whose tracks stay at
// least minSep apart at every period boundary, each judged independently
// against the K-of-M rule. The paper claims its single-target analysis
// "still holds per target" when multiple targets are far from each other;
// this harness is the check. It models the plain trial over one window of
// M periods: other options, and a MissionPeriods beyond M, are rejected
// with ErrConfig.
func RunMulti(cfg Config, targets int, minSep float64) (*MultiResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if targets < 1 {
		return nil, fmt.Errorf("targets = %d must be >= 1: %w", targets, ErrConfig)
	}
	if minSep < 0 {
		return nil, fmt.Errorf("minSep = %v must be >= 0: %w", minSep, ErrConfig)
	}
	if o := cfg.extraOption(); o != "" {
		return nil, fmt.Errorf("multi-target campaigns do not model %s: %w", o, ErrConfig)
	}
	if cfg.MissionPeriods != cfg.Params.M {
		return nil, fmt.Errorf("multi-target campaigns judge one window, not a mission of %d periods: %w", cfg.MissionPeriods, ErrConfig)
	}

	workers := min(cfg.Workers, cfg.Trials)
	parts := make([]multiPartial, workers)
	for w := range parts {
		parts[w].detections = make([]int, targets)
		parts[w].detected = make([]bool, targets)
	}
	err = sweep.Stripe(context.Background(), workers, cfg.Trials, func(w, trial int) error {
		part := &parts[w]
		if err := multiTrial(cfg, minSep, part, trial); err != nil {
			return err
		}
		all, any := true, false
		for j, d := range part.detected {
			if d {
				part.detections[j]++
				any = true
			} else {
				all = false
			}
		}
		if all {
			part.all++
		}
		if any {
			part.any++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	detections := make([]int, targets)
	allCount, anyCount, pooled := 0, 0, 0
	for _, part := range parts {
		allCount += part.all
		anyCount += part.any
		for j, d := range part.detections {
			detections[j] += d
			pooled += d
		}
	}
	res := &MultiResult{Trials: cfg.Trials, Targets: targets, PerTarget: make([]float64, targets)}
	for j, d := range detections {
		res.PerTarget[j] = float64(d) / float64(cfg.Trials)
	}
	res.AllDetected = float64(allCount) / float64(cfg.Trials)
	res.AnyDetected = float64(anyCount) / float64(cfg.Trials)
	ci, err := stats.WilsonInterval(pooled, cfg.Trials*targets, 1.96)
	if err != nil {
		return nil, err
	}
	res.CI = ci
	return res, nil
}

// multiTrial runs one multi-target trial into part.detected: deploy and
// index the sensors, place mutually separated tracks by rejection, then
// sense target by target, period by period.
func multiTrial(cfg Config, minSep float64, part *multiPartial, trial int) error {
	p := cfg.Params
	scratch := getScratch()
	defer scratchPool.Put(scratch)
	rng := scratch.stream.At(cfg.RNG, cfg.Seed, int64(trial))
	bounds := geom.Square(p.FieldSide)
	if err := scratch.deploy(cfg.fleet(), bounds, rng); err != nil {
		return err
	}

	targets := len(part.detected)
	tracks := part.tracks[:0]
	for len(tracks) < targets {
		placed := false
		for attempt := 0; attempt < maxSeparationAttempts; attempt++ {
			track, err := cfg.sampleTrack(bounds, rng)
			if err != nil {
				return err
			}
			if tracksSeparated(track, tracks, minSep) {
				tracks = append(tracks, track)
				placed = true
				break
			}
		}
		if !placed {
			return &multiSeparationError{targets: targets, minSep: minSep}
		}
	}
	part.tracks = tracks

	disk := sensing.Disk{Rs: p.Rs, Pd: p.Pd}
	buf := scratch.buf
	for j, track := range tracks {
		reports := 0
		for period := 1; period <= p.M; period++ {
			seg := geom.Segment{A: track[period-1], B: track[period]}
			buf = scratch.idx[0].QuerySegment(seg, p.Rs, buf[:0])
			for _, id := range buf {
				if disk.Detects(scratch.sensors[id], seg, rng) {
					reports++
				}
			}
		}
		part.detected[j] = reports >= p.K
	}
	scratch.buf = buf
	return nil
}

// tracksSeparated reports whether every position of track keeps at least
// minSep distance from every position of each existing track.
func tracksSeparated(track []geom.Point, existing [][]geom.Point, minSep float64) bool {
	if minSep == 0 {
		return true
	}
	sep2 := minSep * minSep
	for _, other := range existing {
		for _, a := range track {
			for _, b := range other {
				if a.Dist2(b) < sep2 {
					return false
				}
			}
		}
	}
	return true
}
