package sim

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/stats"
	"github.com/groupdetect/gbd/internal/target"
)

// philoxConfigs are the campaign shapes the batch engine must reproduce
// bit-identically: the default straight-line model (Pd = 1, no detection
// draws), a sub-unit Pd (one Bernoulli draw per queried sensor), the
// random-walk model (track draws interleave with the stream), and
// ConfineNone (a single track attempt).
func philoxConfigs() map[string]Config {
	pd := detect.Defaults()
	pd.Pd = 0.7
	walk := detect.Defaults()
	return map[string]Config{
		"straight": {Params: detect.Defaults(), Trials: 57, Seed: 11, RNG: field.SchemePhilox},
		"subpd":    {Params: pd, Trials: 57, Seed: 12, RNG: field.SchemePhilox},
		"walk": {Params: walk, Trials: 57, Seed: 13, RNG: field.SchemePhilox,
			Model: target.RandomWalk{Step: walk.Vt(), MaxTurn: math.Pi / 4}},
		"confinenone": {Params: detect.Defaults(), Trials: 57, Seed: 14, RNG: field.SchemePhilox,
			Confine: ConfineNone},
	}
}

// runTrialsUnbatched aggregates a campaign the W=1 way — runTrial per
// trial, same aggregation as run — bypassing the batch dispatch.
func runTrialsUnbatched(t *testing.T, cfg Config) *Result {
	t.Helper()
	cfgd, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Trials: cfgd.Trials}
	for trial := 0; trial < cfgd.Trials; trial++ {
		tr, err := runTrial(cfgd, cfgd.fleet(), trial, false)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Detected {
			res.Detections++
			if err := res.Latency.Add(tr.DetectedAt); err != nil {
				t.Fatal(err)
			}
		}
		if err := res.Reports.Add(tr.Reports); err != nil {
			t.Fatal(err)
		}
	}
	res.DetectionProb = float64(res.Detections) / float64(res.Trials)
	res.MeanReports = res.Reports.Mean()
	ci, err := stats.WilsonInterval(res.Detections, res.Trials, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	res.CI = ci
	return res
}

// TestBatchBitIdenticalToW1 is the batch engine's core contract: Run
// (which dispatches batchable campaigns to the SoA engine) must produce
// results bit-identical to the W=1 runTrial path, at workers 1, 4, and
// GOMAXPROCS.
func TestBatchBitIdenticalToW1(t *testing.T) {
	for name, cfg := range philoxConfigs() {
		if !cfg.batchable() {
			t.Fatalf("%s: config unexpectedly not batchable", name)
		}
		want := runTrialsUnbatched(t, cfg)
		for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			c := cfg
			c.Workers = w
			got, err := Run(c)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: batch result differs from W=1 path:\n got %+v\nwant %+v",
					name, w, got, want)
			}
		}
	}
}

// TestBatchMatchesDetailedTrials cross-checks the batch counts against
// RunTrial's detailed output trial by trial, so a draw-order slip that
// happened to preserve aggregates would still be caught.
func TestBatchMatchesDetailedTrials(t *testing.T) {
	cfg := philoxConfigs()["subpd"]
	cfg.Trials = 40
	cfg.Workers = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	detections, reports := 0, 0
	for trial := 0; trial < cfg.Trials; trial++ {
		tr, err := RunTrial(cfg, trial)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Detected {
			detections++
		}
		reports += tr.Reports
	}
	if res.Detections != detections {
		t.Errorf("detections: batch %d, per-trial %d", res.Detections, detections)
	}
	if got := res.Reports.Mean() * float64(res.Trials); math.Abs(got-float64(reports)) > 1e-9 {
		t.Errorf("total reports: batch %v, per-trial %d", got, reports)
	}
}

// TestPhiloxFaultyDeterministic covers the non-batch philox path: faulty
// campaigns stay on the scalar runTrial but must be scheme-deterministic
// across worker counts too.
func TestPhiloxFaultyDeterministic(t *testing.T) {
	cfg := Config{
		Params: detect.Defaults(),
		Trials: 60,
		Seed:   21,
		RNG:    field.SchemePhilox,
	}
	cfg.FalseAlarmP = 0.001 // forces the W=1 path without a fault model
	if cfg.batchable() {
		t.Fatal("config unexpectedly batchable")
	}
	var ref *Result
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		c := cfg
		c.Workers = w
		res, err := Run(c)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("workers=%d: results differ:\n%+v\n%+v", w, ref, res)
		}
	}
}

// TestRNGSchemeValidation pins config validation of the scheme value.
func TestRNGSchemeValidation(t *testing.T) {
	cfg := Config{Params: detect.Defaults(), Trials: 1, RNG: field.RNGScheme(42)}
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted an unknown RNG scheme")
	}
}
