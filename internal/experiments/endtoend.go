package experiments

import (
	"context"
	"time"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/sim"
)

// EndToEnd compares the sensing-only analysis with the full deployed
// pipeline — multi-hop delivery to a central base plus the windowed
// decision — across the node sweep (A5). At N >= 120 the ONR communication
// parameters deliver essentially every report within its period and the
// paper's layering assumption holds; at N = 60 the unit-disk network
// fragments and communication, not sensing, limits the system.
func EndToEnd(opt Options) (*Table, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	trials := opt.Trials
	if trials > 2000 {
		trials = 2000 // the end-to-end trial is much heavier than sensing-only
	}
	t := &Table{
		ID:    "endtoend",
		Title: "End-to-end system vs sensing-only analysis (6 km radios, 10 s/hop)",
		Columns: []string{
			"N", "analysis", "end_to_end", "delivered_frac", "mean_delay_periods",
		},
	}
	type e2ePoint struct {
		Ana, Sim, Delivered, MeanDelay float64
	}
	ns := nSweep(opt.Quick)
	points, err := sweepPoints(opt, "endtoend", ns, func(ctx context.Context, _ int, n int) (e2ePoint, error) {
		p := detect.Defaults().WithN(n)
		ana, err := detect.MSApproach(p, detect.MSOptions{Gh: 3, G: 3})
		if err != nil {
			return e2ePoint{}, err
		}
		res, err := sim.RunSystem(ctx, sim.SystemConfig{
			Params:    p,
			CommRange: 6000,
			PerHop:    10 * time.Second,
			Trials:    trials,
			Seed:      opt.Seed + int64(n),
		})
		if err != nil {
			return e2ePoint{}, err
		}
		return e2ePoint{
			Ana: ana.DetectionProb, Sim: res.DetectionProb,
			Delivered: res.DeliveredFrac, MeanDelay: res.MeanDeliveryPeriods,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, pt := range points {
		t.AddRow(ns[i], pt.Ana, pt.Sim, pt.Delivered, pt.MeanDelay)
	}
	t.Notes = append(t.Notes,
		"where delivered_frac ~ 1 the paper's 'ignore the communication stack' argument is validated;",
		"a low delivered_frac at small N shows connectivity, not sensing, binding the system")
	return t, nil
}
