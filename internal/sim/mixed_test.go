package sim

import (
	"errors"
	"math"
	"testing"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/faults"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/infer"
	"github.com/groupdetect/gbd/internal/sensing"
)

func TestRunMixedValidation(t *testing.T) {
	cfg := baseConfig()
	if _, err := RunMixed(cfg, nil); err == nil {
		t.Error("no classes should fail")
	}
	if _, err := RunMixed(cfg, []detect.SensorClass{{Count: 10, Rs: -1, Pd: 0.9}}); err == nil {
		t.Error("bad class should fail")
	}
	bad := cfg
	bad.Trials = 0
	if _, err := RunMixed(bad, []detect.SensorClass{{Count: 10, Rs: 1000, Pd: 0.9}}); err == nil {
		t.Error("bad config should fail")
	}
}

// TestMixedAndMultiRejectUnmodeledOptions: mixed-fleet and multi-target
// campaigns simulate the plain trial only, so every option that would
// change a plain trial's answer must fail with ErrConfig instead of being
// silently dropped.
func TestMixedAndMultiRejectUnmodeledOptions(t *testing.T) {
	classes := []detect.SensorClass{{Count: 80, Rs: 1000, Pd: 0.9}, {Count: 20, Rs: 2000, Pd: 0.8}}
	cases := []struct {
		name      string
		mut       func(*Config)
		multiOnly bool
	}{
		{"Faults", func(c *Config) { c.Faults = faults.Bernoulli{DeadFrac: 0.1} }, false},
		{"CommRange", func(c *Config) { c.CommRange = 6000 }, false},
		{"PDeliver", func(c *Config) { c.PDeliver = 0.9 }, false},
		{"Beacons", func(c *Config) { c.Beacons = true }, false},
		{"Infer", func(c *Config) { c.Infer = &infer.Options{} }, false},
		{"FalseAlarmP", func(c *Config) { c.FalseAlarmP = 0.001 }, false},
		{"ExposureLambda", func(c *Config) { c.ExposureLambda = 0.01 }, false},
		{"MissionPeriods", func(c *Config) { c.MissionPeriods = c.Params.M + 5 }, true},
	}
	for _, tc := range cases {
		cfg := baseConfig()
		cfg.Trials = 4
		tc.mut(&cfg)
		if !tc.multiOnly {
			if _, err := RunMixed(cfg, classes); !errors.Is(err, ErrConfig) {
				t.Errorf("RunMixed with %s: err = %v, want ErrConfig", tc.name, err)
			}
		}
		if _, err := RunMulti(cfg, 2, 0); !errors.Is(err, ErrConfig) {
			t.Errorf("RunMulti with %s: err = %v, want ErrConfig", tc.name, err)
		}
	}
}

func TestRunMixedSingleClassMatchesRun(t *testing.T) {
	cfg := baseConfig()
	cfg.Trials = 1200
	p := cfg.Params
	mixed, err := RunMixed(cfg, []detect.SensorClass{{Count: p.N, Rs: p.Rs, Pd: p.Pd}})
	if err != nil {
		t.Fatal(err)
	}
	single, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mixed.DetectionProb-single.DetectionProb) > 0.05 {
		t.Errorf("mixed single-class %v vs Run %v", mixed.DetectionProb, single.DetectionProb)
	}
}

// TestRunMixedMatchesMixedAnalysis validates detect.MSApproachMixed
// end-to-end on a genuinely heterogeneous fleet.
func TestRunMixedMatchesMixedAnalysis(t *testing.T) {
	cfg := baseConfig()
	cfg.Trials = 2500
	classes := []detect.SensorClass{
		{Count: 90, Rs: 800, Pd: 0.85},
		{Count: 15, Rs: 2500, Pd: 0.95},
	}
	simRes, err := RunMixed(cfg, classes)
	if err != nil {
		t.Fatal(err)
	}
	ana, err := detect.MSApproachMixed(cfg.Params, classes, detect.MSOptions{Gh: 5, G: 5})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(simRes.DetectionProb - ana.DetectionProb); diff > 0.04 {
		t.Errorf("mixed sim %v vs mixed analysis %v (diff %v)",
			simRes.DetectionProb, ana.DetectionProb, diff)
	}
}

// TestDutyCycleEquivalence checks the WithDutyCycle composition claim: a
// simulation at Pd*q matches the analysis of the duty-cycled scenario.
func TestDutyCycleEquivalence(t *testing.T) {
	base := baseConfig()
	base.Trials = 2500
	duty, err := base.Params.WithDutyCycle(0.6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Params = duty
	simRes, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ana, err := detect.MSApproach(duty, detect.MSOptions{Gh: 4, G: 4})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(simRes.DetectionProb - ana.DetectionProb); diff > 0.035 {
		t.Errorf("duty-cycled sim %v vs analysis %v", simRes.DetectionProb, ana.DetectionProb)
	}
}

// TestExposureModelCalibration validates the footnote-1 extension: a
// simulation under the dwell-time sensing model matches the paper's flat-Pd
// analysis when Pd is calibrated to the exposure model's average in-DR
// detection probability.
func TestExposureModelCalibration(t *testing.T) {
	base := baseConfig()
	base.Trials = 3000
	const lambda = 0.04 // 1/s
	exp, err := sensing.NewExposure(base.Params.Rs, lambda)
	if err != nil {
		t.Fatal(err)
	}
	pdEq := exp.EquivalentPd(base.Params.Vt(), base.Params.V, 400_000, field.NewRand(17))
	if pdEq <= 0.2 || pdEq >= 0.99 {
		t.Fatalf("equivalent Pd = %v out of interesting range", pdEq)
	}

	cfg := base
	cfg.ExposureLambda = lambda
	simRes, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	calibrated := base.Params
	calibrated.Pd = pdEq
	ana, err := detect.MSApproach(calibrated, detect.MSOptions{Gh: 4, G: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The flat-Pd analysis with calibrated Pd is an approximation (it
	// ignores per-sensor dwell correlation across periods), so allow a
	// looser tolerance than the exact-model tests.
	if diff := math.Abs(simRes.DetectionProb - ana.DetectionProb); diff > 0.06 {
		t.Errorf("exposure sim %v vs calibrated analysis %v (Pd_eq=%v, diff %v)",
			simRes.DetectionProb, ana.DetectionProb, pdEq, diff)
	}
}

func TestExposureLambdaValidation(t *testing.T) {
	cfg := baseConfig()
	cfg.ExposureLambda = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative lambda should fail")
	}
}

// TestExposureSlowTargetAdvantage: under the dwell model, slower targets
// are individually easier to detect per encounter, partially offsetting
// the smaller swept area — the trade-off the paper's footnote hints at.
func TestExposureSlowTargetAdvantage(t *testing.T) {
	cfg := baseConfig()
	cfg.Trials = 2500
	cfg.ExposureLambda = 0.04
	fast, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slowCfg := cfg
	slowCfg.Params = cfg.Params.WithV(4)
	slow, err := Run(slowCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Under the flat model V=10 beats V=4 by ~16 points (Fig. 9a); under
	// the dwell model the gap must shrink (or invert).
	flatGap := 0.7814 - 0.6222
	expGap := fast.DetectionProb - slow.DetectionProb
	if expGap > flatGap-0.03 {
		t.Errorf("dwell model should shrink the speed advantage: flat gap %v, exposure gap %v",
			flatGap, expGap)
	}
}
