package sim

import (
	"context"
	"fmt"
	"time"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/stats"
	"github.com/groupdetect/gbd/internal/target"
)

// SystemConfig describes the full deployed system: sensors detect a moving
// target (and false-alarm), reports travel over the multi-hop unit-disk
// network to a base station at the node nearest the field center with a
// fixed per-hop latency, and the base runs the windowed, optionally
// track-gated group detection rule on the reports that actually arrive.
// The paper analyzes the sensing layer in isolation and assumes delivery
// within one period (Section 4); this campaign quantifies when that
// assumption holds — and what detection costs when it does not.
type SystemConfig struct {
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

// config validates c and maps it onto the trial kernel: a delivery-modeled
// campaign on the legacy scheme whose channel is the relay's shortest path
// at PerHop per hop, deciding on window = mission = M.
func (c SystemConfig) config() (Config, error) {
	switch {
	case !(c.CommRange > 0):
		return Config{}, fmt.Errorf("comm range %v: %w", c.CommRange, ErrConfig)
	case c.PerHop <= 0:
		return Config{}, fmt.Errorf("per-hop latency %v: %w", c.PerHop, ErrConfig)
	}
	return Config{
		Params:      c.Params,
		Model:       c.Model,
		Trials:      c.Trials,
		Seed:        c.Seed,
		Workers:     c.Workers,
		FalseAlarmP: c.FalseAlarmP,
		CommRange:   c.CommRange,
		perHop:      c.PerHop,
		gated:       c.Gated,
	}.withDefaults()
}

// SystemResult aggregates an end-to-end campaign.
type SystemResult struct {
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

// RunSystem simulates the full pipeline on the simulator's trial kernel.
// Cancellation stops every worker within a bounded number of trials and
// returns ctx.Err(); the context never touches trial mechanics.
func RunSystem(ctx context.Context, cfg SystemConfig) (*SystemResult, error) {
	c, err := cfg.config()
	if err != nil {
		return nil, err
	}
	res, err := run(ctx, c, c.fleet())
	if err != nil {
		return nil, err
	}
	out := &SystemResult{
		Trials:          res.Trials,
		Detections:      res.Detections,
		DetectionProb:   res.DetectionProb,
		CI:              res.CI,
		DecisionLatency: res.Latency,
	}
	arrived := res.Faults.Delivered + res.Faults.Late
	if res.Faults.Generated > 0 {
		out.DeliveredFrac = float64(arrived) / float64(res.Faults.Generated)
	}
	if arrived > 0 {
		out.MeanDeliveryPeriods = float64(res.delay) / float64(arrived)
	}
	return out, nil
}
