package sim

import (
	"context"
	"fmt"

	"github.com/groupdetect/gbd/internal/detect"
)

// RunMixed simulates a heterogeneous deployment: each sensor class is
// deployed uniformly with its own range and detection probability, and
// reports from all classes count toward the shared K-of-M rule. It
// validates detect.MSApproachMixed. The base config's N, Rs and Pd are
// ignored in favor of the classes; options beyond the plain trial
// (faults, delivery, beacons, inference, false alarms, exposure) are
// rejected with ErrConfig.
func RunMixed(cfg Config, classes []detect.SensorClass) (*Result, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("no sensor classes: %w", ErrConfig)
	}
	for i, c := range classes {
		p := cfg.Params
		p.N, p.Rs, p.Pd = c.Count, c.Rs, c.Pd
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("class %d: %w", i, err)
		}
	}
	// Validate the base scenario with the first class patched in.
	cfg.Params.N, cfg.Params.Rs, cfg.Params.Pd = classes[0].Count, classes[0].Rs, classes[0].Pd
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if o := cfg.extraOption(); o != "" {
		return nil, fmt.Errorf("mixed fleets do not model %s: %w", o, ErrConfig)
	}
	return run(context.Background(), cfg, classes)
}
