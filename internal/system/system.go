// Package system is the end-to-end integration of every substrate: sensors
// detect a moving target (and false-alarm), reports travel over the
// multi-hop unit-disk network to a base station with per-hop latency, and
// the base runs the windowed, optionally track-gated group detection rule
// on the reports that actually arrive. The paper analyzes the sensing layer
// in isolation and assumes delivery within one period (Section 4); this
// package simulates the deployed-system view and quantifies when that
// assumption holds — and what detection costs when it does not.
package system

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
	"github.com/groupdetect/gbd/internal/netsim"
	"github.com/groupdetect/gbd/internal/sensing"
	"github.com/groupdetect/gbd/internal/stats"
	"github.com/groupdetect/gbd/internal/sweep"
	"github.com/groupdetect/gbd/internal/target"
	"github.com/groupdetect/gbd/internal/track"
)

// ErrConfig reports an invalid system configuration.
var ErrConfig = errors.New("system: invalid configuration")

// Config describes the full deployed system.
type Config struct {
	// Params is the sensing scenario (field, sensors, target, K-of-M rule).
	Params detect.Params
	// CommRange is the radio range for the unit-disk communication graph.
	CommRange float64
	// PerHop is the per-hop forwarding latency.
	PerHop time.Duration
	// FalseAlarmP is the per-sensor per-period false alarm probability.
	FalseAlarmP float64
	// Gated applies the kinematic track-consistency filter at the base;
	// ungated counts raw reports per window (the rule the analysis models).
	Gated bool
	// Model generates target tracks; nil means straight-line at V.
	Model target.Model
	// Trials and Seed control the campaign.
	Trials int
	Seed   int64
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
}

func (c Config) validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	switch {
	case c.CommRange <= 0:
		return fmt.Errorf("comm range %v: %w", c.CommRange, ErrConfig)
	case c.PerHop <= 0:
		return fmt.Errorf("per-hop latency %v: %w", c.PerHop, ErrConfig)
	case c.FalseAlarmP < 0 || c.FalseAlarmP > 1:
		return fmt.Errorf("false alarm probability %v: %w", c.FalseAlarmP, ErrConfig)
	case c.Trials < 1:
		return fmt.Errorf("trials %d: %w", c.Trials, ErrConfig)
	case c.Workers < 0:
		return fmt.Errorf("workers %d: %w", c.Workers, ErrConfig)
	}
	return nil
}

// Result aggregates an end-to-end campaign.
type Result struct {
	// Trials and Detections count trials and base-station detections.
	Trials, Detections int
	// DetectionProb is the end-to-end detection probability; CI its 95%
	// Wilson interval.
	DetectionProb float64
	CI            stats.Interval
	// DeliveredFrac is the fraction of generated reports that reached the
	// base within the observation window.
	DeliveredFrac float64
	// MeanDeliveryPeriods is the average delivery delay in whole sensing
	// periods (0 means within the generating period — the paper's
	// assumption).
	MeanDeliveryPeriods float64
	// DecisionLatency is the distribution, over detected trials, of the
	// period at which the base declared the detection.
	DecisionLatency stats.Histogram
}

// Run simulates the full pipeline.
func Run(cfg Config) (*Result, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx is Run under a context: cancellation stops every worker within a
// bounded number of trials and returns ctx.Err(). A completing run is
// bit-identical to Run (the context never touches trial mechanics).
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := cfg.Params
	model := cfg.Model
	if model == nil {
		model = target.Straight{Step: p.Vt()}
	}
	bounds := geom.Square(p.FieldSide)
	disk, err := sensing.NewDisk(p.Rs, p.Pd)
	if err != nil {
		return nil, err
	}
	fa, err := sensing.NewFalseAlarm(cfg.FalseAlarmP)
	if err != nil {
		return nil, err
	}
	gate, err := track.NewGate(p.V, p.T, p.Rs)
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, cfg.Trials)
	type partial struct {
		stream                       *field.Stream
		detections                   int
		generated, delivered, delays int
		latency                      stats.Histogram
	}
	parts := make([]partial, workers)
	for w := range parts {
		parts[w].stream = field.NewStream()
	}
	err = sweep.Stripe(ctx, workers, cfg.Trials, func(w, trial int) error {
		part := &parts[w]
		rng := part.stream.At(field.SchemeLegacy, cfg.Seed, int64(trial))
		decided, gen, del, delay, err := runTrial(cfg, p, model, disk, fa, gate, bounds, rng)
		if err != nil {
			return err
		}
		part.generated += gen
		part.delivered += del
		part.delays += delay
		if decided > 0 {
			part.detections++
			return part.latency.Add(decided)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Trials: cfg.Trials}
	var generated, delivered, delaySum int
	for i := range parts {
		res.Detections += parts[i].detections
		generated += parts[i].generated
		delivered += parts[i].delivered
		delaySum += parts[i].delays
		res.DecisionLatency.Merge(&parts[i].latency)
	}

	res.DetectionProb = float64(res.Detections) / float64(res.Trials)
	ci, err := stats.WilsonInterval(res.Detections, res.Trials, 1.96)
	if err != nil {
		return nil, err
	}
	res.CI = ci
	if generated > 0 {
		res.DeliveredFrac = float64(delivered) / float64(generated)
	}
	if delivered > 0 {
		res.MeanDeliveryPeriods = float64(delaySum) / float64(delivered)
	}
	return res, nil
}

// runTrial executes one end-to-end trial on rng and returns the decision
// period (0 if undetected) plus report accounting.
func runTrial(cfg Config, p detect.Params, model target.Model, disk sensing.Disk,
	fa sensing.FalseAlarm, gate track.Gate, bounds geom.Rect,
	rng *rand.Rand) (decided, generated, delivered, delaySum int, err error) {
	sensors, err := field.Uniform(p.N, bounds, rng)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	idx, err := field.NewIndex(sensors, bounds, field.CellSize(p.Rs, p.FieldSide))
	if err != nil {
		return 0, 0, 0, 0, err
	}
	net, err := netsim.New(sensors, cfg.CommRange, bounds)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	hops, err := net.HopsFrom(netsim.CenterNode(sensors, bounds))
	if err != nil {
		return 0, 0, 0, 0, err
	}

	tr, err := target.Sample(model, p.M, bounds, true, rng)
	if err != nil {
		return 0, 0, 0, 0, err
	}

	// arrivals[period] lists reports the base receives during that
	// period.
	arrivals := make([][]track.Report, p.M+1)
	deliver := func(r track.Report, hopCount int) {
		generated++
		if hopCount < 0 {
			return // reporter disconnected from the base
		}
		// Whole-period delay: a report forwarded within its own period
		// (hops*PerHop <= T) arrives with zero period delay, matching
		// the paper's assumption when it holds.
		delay := int(math.Ceil(float64(time.Duration(hopCount)*cfg.PerHop) / float64(p.T)))
		if delay > 0 {
			delay--
		}
		at := r.Period + delay
		if at > p.M {
			return // too late for the decision window
		}
		arrivals[at] = append(arrivals[at], r)
		delivered++
		delaySum += at - r.Period
	}

	buf := make([]int, 0, 16)
	for period := 1; period <= p.M; period++ {
		seg := geom.Segment{A: tr[period-1], B: tr[period]}
		buf = idx.QuerySegment(seg, p.Rs, buf[:0])
		for _, id := range buf {
			if disk.Detects(sensors[id], seg, rng) {
				deliver(track.Report{Sensor: id, Pos: sensors[id], Period: period}, hops[id])
			}
		}
		if fa.P > 0 {
			for s := 0; s < p.N; s++ {
				if fa.Fires(rng) {
					deliver(track.Report{Sensor: s, Pos: sensors[s], Period: period}, hops[s])
				}
			}
		}
	}

	// The base evaluates the rule at the end of each period on
	// everything that has arrived so far.
	var inbox []track.Report
	for period := 1; period <= p.M && decided == 0; period++ {
		inbox = append(inbox, arrivals[period]...)
		if len(inbox) < p.K {
			continue
		}
		dec, err := track.Decide(inbox, p.K, p.M, gate, cfg.Gated)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if dec.Detected {
			decided = period
		}
	}
	return decided, generated, delivered, delaySum, nil
}
