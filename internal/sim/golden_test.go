package sim_test

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/faults"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/infer"
	"github.com/groupdetect/gbd/internal/netsim"
	"github.com/groupdetect/gbd/internal/sim"
	"github.com/groupdetect/gbd/internal/target"
)

// The golden values below were captured from the pre-optimization trial
// loop (PR 1). The throughput overhaul (scratch arenas, routing-table
// caching, flat adjacency) must not change a single random draw, so every
// campaign here has to reproduce its golden numbers exactly — not within a
// tolerance.

func exactf(t *testing.T, name string, got, want float64) {
	t.Helper()
	if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Errorf("%s = %.17g, want exactly %.17g", name, got, want)
	}
}

func exacti(t *testing.T, name string, got, want int) {
	t.Helper()
	if got != want {
		t.Errorf("%s = %d, want exactly %d", name, got, want)
	}
}

func TestGoldenFaultyCampaign(t *testing.T) {
	res, err := sim.Run(sim.Config{
		Params:    detect.Defaults(),
		Trials:    300,
		Seed:      42,
		Workers:   3,
		Faults:    faults.Bernoulli{DeadFrac: 0.2},
		CommRange: 6000,
		Loss: netsim.LossModel{
			PerHopDelivery: 0.9,
			MaxRetries:     2,
			PerHop:         10 * time.Second,
			Backoff:        5 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	exacti(t, "Detections", res.Detections, 214)
	exactf(t, "DetectionProb", res.DetectionProb, 0.71333333333333337)
	exacti(t, "Generated", res.Faults.Generated, 2275)
	exacti(t, "Delivered", res.Faults.Delivered, 2168)
	exacti(t, "Late", res.Faults.Late, 99)
	exacti(t, "Lost", res.Faults.Lost, 8)
	exacti(t, "Rerouted", res.Faults.Rerouted, 110)
	exactf(t, "MeanAliveFrac", res.Faults.MeanAliveFrac, 0.8007777777777777)
	exactf(t, "MeanReports", res.MeanReports, 7.5566666666666666)
}

func TestGoldenLifetimeCampaign(t *testing.T) {
	res, err := sim.Run(sim.Config{
		Params:  detect.Defaults(),
		Trials:  300,
		Seed:    7,
		Workers: 2,
		Faults:  faults.Lifetime{Hazard: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	exacti(t, "Detections", res.Detections, 197)
	exacti(t, "Generated", res.Faults.Generated, 2133)
	exactf(t, "MeanAliveFrac", res.Faults.MeanAliveFrac, 0.812923611111111)
	exactf(t, "MeanReports", res.MeanReports, 7.1100000000000003)
}

func TestGoldenLossyCampaign(t *testing.T) {
	res, err := sim.Run(sim.Config{
		Params:    detect.Defaults(),
		Trials:    300,
		Seed:      11,
		Workers:   4,
		CommRange: 6000,
		Loss: netsim.LossModel{
			PerHopDelivery: 0.8,
			MaxRetries:     1,
			PerHop:         10 * time.Second,
			Backoff:        5 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	exacti(t, "Detections", res.Detections, 212)
	exacti(t, "Generated", res.Faults.Generated, 2747)
	exacti(t, "Delivered", res.Faults.Delivered, 2439)
	exacti(t, "Late", res.Faults.Late, 58)
	exacti(t, "Lost", res.Faults.Lost, 250)
	exacti(t, "Rerouted", res.Faults.Rerouted, 102)
	exactf(t, "MeanReports", res.MeanReports, 8.3233333333333341)
}

func TestGoldenPlainCampaign(t *testing.T) {
	res, err := sim.Run(sim.Config{Params: detect.Defaults(), Trials: 400, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	exacti(t, "Detections", res.Detections, 293)
	exactf(t, "MeanReports", res.MeanReports, 8.6974999999999998)
	exactf(t, "Latency.Mean", res.Latency.Mean(), 10.279863481228668)
}

func TestGoldenDetailedFaultyTrial(t *testing.T) {
	tr, err := sim.RunTrial(sim.Config{
		Params:    detect.Defaults(),
		Trials:    300,
		Seed:      42,
		Workers:   3,
		Faults:    faults.Bernoulli{DeadFrac: 0.2},
		CommRange: 6000,
		Loss: netsim.LossModel{
			PerHopDelivery: 0.9,
			MaxRetries:     2,
			PerHop:         10 * time.Second,
			Backoff:        5 * time.Second,
		},
	}, 17)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Detected {
		t.Error("trial 17 should detect")
	}
	exacti(t, "DetectedAt", tr.DetectedAt, 8)
	exacti(t, "Reports", tr.Reports, 6)
	exacti(t, "Generated", tr.Faults.Generated, 6)
	exacti(t, "Delivered", tr.Faults.Delivered, 4)
	exacti(t, "Late", tr.Faults.Late, 2)
	exacti(t, "Lost", tr.Faults.Lost, 0)
	exacti(t, "Rerouted", tr.Faults.Rerouted, 6)
	exacti(t, "len(Reporters)", len(tr.Reporters), 2)
}

// TestGoldenPhiloxCampaign pins the counter-based scheme's own stream the
// same way the legacy goldens pin theirs: the first campaign exercises the
// batched SoA engine, the second (false alarms enabled) the W=1 philox
// fallback. Philox trials are seeded by (campaign seed, trial index)
// alone, so these numbers are worker-count invariant by construction.
func TestGoldenPhiloxCampaign(t *testing.T) {
	res, err := sim.Run(sim.Config{
		Params: detect.Defaults(), Trials: 400, Seed: 3, Workers: 2,
		RNG: field.SchemePhilox,
	})
	if err != nil {
		t.Fatal(err)
	}
	exacti(t, "Detections", res.Detections, 304)
	exactf(t, "MeanReports", res.MeanReports, 9.4275000000000002)
	exactf(t, "Latency.Mean", res.Latency.Mean(), 9.5592105263157894)

	fa, err := sim.Run(sim.Config{
		Params: detect.Defaults(), Trials: 300, Seed: 9, Workers: 3,
		RNG: field.SchemePhilox, FalseAlarmP: 0.0005,
	})
	if err != nil {
		t.Fatal(err)
	}
	exacti(t, "fa.Detections", fa.Detections, 262)
	exactf(t, "fa.MeanReports", fa.MeanReports, 10.323333333333334)
}

// TestGoldenAnalysis pins the M-S-approach outputs that the stage-PMF
// memoization must preserve bit for bit.
func TestGoldenAnalysis(t *testing.T) {
	p := detect.Defaults()
	a1, err := detect.MSApproach(p, detect.MSOptions{Gh: 3, G: 3})
	if err != nil {
		t.Fatal(err)
	}
	exactf(t, "p1.DetectionProb", a1.DetectionProb, 0.78138519369057979)
	exactf(t, "p1.Mass", a1.Mass, 0.99794066216380073)
	a2, err := detect.MSApproach(p.WithN(240).WithV(4), detect.MSOptions{Gh: 6, G: 3})
	if err != nil {
		t.Fatal(err)
	}
	exactf(t, "p2.DetectionProb", a2.DetectionProb, 0.87351290416808747)
	exactf(t, "p2.RawTail", a2.RawTail, 0.87338945503962007)
}

// The pins below cover the campaign shapes the goldens above do not:
// mixed fleets, multiple targets, the dwell-time sensing model and a
// non-straight motion model. Their values were recorded before the trial
// helpers were unified and must stay exact.

func TestGoldenMixedCampaign(t *testing.T) {
	p := detect.Defaults()
	res, err := sim.RunMixed(sim.Config{Params: p, Trials: 300, Seed: 5, Workers: 2}, []detect.SensorClass{
		{Count: 90, Rs: 800, Pd: 0.85},
		{Count: 15, Rs: 2500, Pd: 0.95},
	})
	if err != nil {
		t.Fatal(err)
	}
	exacti(t, "Detections", res.Detections, 229)
	exactf(t, "MeanReports", res.MeanReports, 9.836666666666666)
	exactf(t, "Latency.Mean", res.Latency.Mean(), 10.087336244541484)
	exactf(t, "CI.Lo", res.CI.Lo, 0.71209574486994798)
}

func TestGoldenMultiCampaign(t *testing.T) {
	for _, tc := range []struct {
		scheme        field.RNGScheme
		per0, per1    float64
		all, any, ciL float64
	}{
		{field.SchemeLegacy, 0.82666666666666666, 0.79000000000000004, 0.65666666666666662, 0.95999999999999996, 0.77491532731669377},
		{field.SchemePhilox, 0.84666666666666668, 0.77666666666666662, 0.67333333333333334, 0.94999999999999996, 0.77843580216688324},
	} {
		res, err := sim.RunMulti(sim.Config{
			Params: detect.Defaults(), Trials: 300, Seed: 17, Workers: 2, RNG: tc.scheme,
		}, 2, 2000)
		if err != nil {
			t.Fatal(err)
		}
		name := tc.scheme.String()
		exactf(t, name+".PerTarget[0]", res.PerTarget[0], tc.per0)
		exactf(t, name+".PerTarget[1]", res.PerTarget[1], tc.per1)
		exactf(t, name+".AllDetected", res.AllDetected, tc.all)
		exactf(t, name+".AnyDetected", res.AnyDetected, tc.any)
		exactf(t, name+".CI.Lo", res.CI.Lo, tc.ciL)
	}
}

func TestGoldenExposureCampaign(t *testing.T) {
	res, err := sim.Run(sim.Config{
		Params: detect.Defaults(), Trials: 300, Seed: 23, Workers: 3, ExposureLambda: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	exacti(t, "Detections", res.Detections, 77)
	exactf(t, "MeanReports", res.MeanReports, 3.1833333333333331)
	exactf(t, "Latency.Mean", res.Latency.Mean(), 14.064935064935066)
}

func TestGoldenRandomWalkCampaign(t *testing.T) {
	p := detect.Defaults()
	res, err := sim.Run(sim.Config{
		Params: p, Trials: 300, Seed: 29, Workers: 2,
		Model: target.RandomWalk{Step: p.Vt(), MaxTurn: math.Pi / 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	exacti(t, "Detections", res.Detections, 247)
	exactf(t, "MeanReports", res.MeanReports, 9.2566666666666659)
	exactf(t, "Latency.Mean", res.Latency.Mean(), 10.607287449392713)
}

// TestGoldenRelayClasses pins every trial class that routes reports over
// the unit-disk relay network — lossy, faulty-relay with a static and a
// changing alive mask, and beaconing — from dense to partitioned ranges
// under both RNG schemes, through DetectionProb and every Faults counter.
// The values were recorded before the network and its routing table were
// built lazily and must stay exact.
func TestGoldenRelayClasses(t *testing.T) {
	lossy := func(p float64, retries int) netsim.LossModel {
		return netsim.LossModel{PerHopDelivery: p, MaxRetries: retries, PerHop: 10 * time.Second, Backoff: 5 * time.Second}
	}
	for _, tc := range []struct {
		name      string
		n         int
		commRange float64
		rng       field.RNGScheme
		faults    faults.Model
		beacons   bool
		loss      netsim.LossModel
		want      string
	}{
		{"lossy campaign", 180, 6000, field.SchemePhilox, nil, false, lossy(0.9, 2), "0.89500000000000002 2676/2618/52/6/21 1"},
		{"lossy sparse", 120, 4000, field.SchemeLegacy, nil, false, lossy(0.8, 1), "0.57499999999999996 1792/838/430/524/788 1"},
		{"lossy partitioned", 60, 3000, field.SchemePhilox, nil, false, lossy(0.95, 0), "0.065000000000000002 893/145/0/748/749 1"},
		{"faulty relay", 180, 6000, field.SchemePhilox, faults.Bernoulli{DeadFrac: 0.2}, false, lossy(0.9, 2), "0.84999999999999998 2337/2290/41/6/8 0.79863888888888934"},
		{"faulty relay sparse", 240, 5000, field.SchemeLegacy, faults.Bernoulli{DeadFrac: 0.5}, false, lossy(0.9, 1), "0.79500000000000004 1877/1657/154/66/185 0.49941666666666679"},
		{"lifetime relay", 180, 6000, field.SchemePhilox, faults.Lifetime{Hazard: 0.05}, false, lossy(0.9, 2), "0.77500000000000002 1705/1638/52/15/61 0.61192916666666675"},
		{"beacons", 120, 6000, field.SchemeLegacy, nil, true, lossy(0.9, 2), "0.75 1787/1718/59/10/39 1"},
	} {
		p := detect.Defaults()
		p.N = tc.n
		res, err := sim.Run(sim.Config{
			Params: p, Trials: 200, Seed: 5, Workers: 2, RNG: tc.rng,
			CommRange: tc.commRange, Faults: tc.faults, Beacons: tc.beacons, Loss: tc.loss,
		})
		if err != nil {
			t.Fatal(err)
		}
		f := res.Faults
		got := fmt.Sprintf("%.17g %d/%d/%d/%d/%d %.17g", res.DetectionProb,
			f.Generated, f.Delivered, f.Late, f.Lost, f.Rerouted, f.MeanAliveFrac)
		if got != tc.want {
			t.Errorf("%s: got %q, want exactly %q", tc.name, got, tc.want)
		}
	}
}

// TestGoldenFaultModels pins the fault-injection campaigns the goldens
// above leave open: the campaign's faulty class (Bernoulli dead sensors
// on the flat lossy uplink) under both schemes, a mid-mission Blob on the
// relay network, and a Compose of a battery hazard with a Blob. Each pin
// carries DetectionProb, every FaultStats counter and the MeanAliveFrac
// bits. The values were recorded before the fault models returned one
// death period per sensor and must stay exact.
func TestGoldenFaultModels(t *testing.T) {
	relay := netsim.LossModel{PerHopDelivery: 0.9, MaxRetries: 2, PerHop: 10 * time.Second, Backoff: 5 * time.Second}
	for _, tc := range []struct {
		name      string
		n         int
		rng       field.RNGScheme
		faults    faults.Model
		pDeliver  float64
		commRange float64
		want      string
	}{
		{"faulty uplink legacy", 180, field.SchemeLegacy, faults.Bernoulli{DeadFrac: 0.2}, 0.9, 0, "0.81499999999999995 10.005000000000001 2246/2001/0/245/0 0.80080555555555577"},
		{"faulty uplink philox", 180, field.SchemePhilox, faults.Bernoulli{DeadFrac: 0.2}, 0.9, 0, "0.80000000000000004 9.4250000000000007 2117/1885/0/232/0 0.79994444444444457"},
		{"blob relay legacy", 180, field.SchemeLegacy, faults.Blob{Radius: 9000, At: 6}, 0, 6000, "0.80500000000000005 11.42 2401/2212/72/117/139 0.85508333333333331"},
		{"blob uplink philox", 150, field.SchemePhilox, faults.Blob{Radius: 7000}, 0.9, 0, "0.77000000000000002 8.9450000000000003 2007/1789/0/218/0 0.87683333333333291"},
		{"lifetime+blob relay philox", 180, field.SchemePhilox,
			faults.Compose{faults.Lifetime{Hazard: 0.02, InitialDeadFrac: 0.1}, faults.Blob{Radius: 8000, At: 9}}, 0, 6000, "0.73999999999999999 9.4100000000000001 1919/1826/56/37/58 0.66867638888888881"},
		{"lifetime+blob uplink legacy", 150, field.SchemeLegacy,
			faults.Compose{faults.Lifetime{Hazard: 0.03}, faults.Blob{Radius: 6000, At: 4}}, 0.9, 0, "0.71499999999999997 7.2149999999999999 1609/1443/0/166/0 0.67984333333333324"},
	} {
		p := detect.Defaults()
		p.N = tc.n
		res, err := sim.Run(sim.Config{
			Params: p, Trials: 200, Seed: 13, Workers: 2, RNG: tc.rng,
			Faults: tc.faults, PDeliver: tc.pDeliver, CommRange: tc.commRange, Loss: relay,
		})
		if err != nil {
			t.Fatal(err)
		}
		f := res.Faults
		got := fmt.Sprintf("%.17g %.17g %d/%d/%d/%d/%d %.17g", res.DetectionProb, res.MeanReports,
			f.Generated, f.Delivered, f.Late, f.Lost, f.Rerouted, f.MeanAliveFrac)
		if got != tc.want {
			t.Errorf("%s: got %q, want exactly %q", tc.name, got, tc.want)
		}
	}
}

// TestGoldenInferCampaign pins an Infer+Beacons campaign under both
// schemes, with permanent deaths before and during the mission, through
// every InferStats field and the MeanAliveFrac bits. The values were
// recorded before the fault models returned one death period per sensor
// and must stay exact.
func TestGoldenInferCampaign(t *testing.T) {
	for _, tc := range []struct {
		rng  field.RNGScheme
		want string
	}{
		{field.SchemeLegacy, "0.60833333333333328 {Sensors:14400 Periods:288000 Final:{TP:3704 FP:61 FN:122 TN:10513} PerPeriod:{TP:50006 FP:1306 FN:4830 TN:231858} Declarations:4880 Retractions:1115 TTDSum:8370 TTDCount:3693 InferredDead:3765 TruthDead:3826 Generated:234061 Delivered:210817} 0.80959722222222197"},
		{field.SchemePhilox, "0.64166666666666672 {Sensors:14400 Periods:288000 Final:{TP:3630 FP:69 FN:131 TN:10570} PerPeriod:{TP:49712 FP:1376 FN:4692 TN:232220} Declarations:4873 Retractions:1174 TTDSum:8144 TTDCount:3617 InferredDead:3699 TruthDead:3761 Generated:234493 Delivered:211227} 0.81109722222222258"},
	} {
		res, err := sim.Run(sim.Config{
			Params: detect.Defaults(), Trials: 120, Seed: 42, Workers: 2, RNG: tc.rng,
			Faults:   faults.Compose{faults.Bernoulli{DeadFrac: 0.1}, faults.Lifetime{Hazard: 0.01}},
			PDeliver: 0.9, Beacons: true, Infer: &infer.Options{},
		})
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%.17g %+v %.17g", res.DetectionProb, *res.Infer, res.Faults.MeanAliveFrac)
		if got != tc.want {
			t.Errorf("%v: got %q, want exactly %q", tc.rng, got, tc.want)
		}
	}
}

// systemGoldenConfig is the end-to-end golden campaigns' base: the ONR
// scenario on 6 km radios at 10 s per hop.
func systemGoldenConfig() sim.SystemConfig {
	return sim.SystemConfig{
		Params:    detect.Defaults(),
		CommRange: 6000,
		PerHop:    10 * time.Second,
		Seed:      21,
	}
}

// TestGoldenFalseAlarmCampaigns pins the end-to-end pipeline with false
// alarms under both decision rules. The values were recorded on the
// standalone end-to-end trial loop, before it was folded into the sim
// trial kernel, and must stay exact.
func TestGoldenFalseAlarmCampaigns(t *testing.T) {
	for _, tc := range []struct {
		gated                        bool
		detections                   int
		delivered, delay, latencyAvg float64
	}{
		{false, 266, 0.99970492770728825, 0.00029515938606847696, 9.1917293233082713},
		{true, 237, 0.99970492770728825, 0.00029515938606847696, 10.278481012658228},
	} {
		cfg := systemGoldenConfig()
		cfg.Trials = 300
		cfg.Workers = 2
		cfg.FalseAlarmP = 0.001
		cfg.Gated = tc.gated
		res, err := sim.RunSystem(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Detections != tc.detections {
			t.Errorf("gated=%v: Detections = %d, want exactly %d", tc.gated, res.Detections, tc.detections)
		}
		for _, v := range []struct {
			name      string
			got, want float64
		}{
			{"DeliveredFrac", res.DeliveredFrac, tc.delivered},
			{"MeanDeliveryPeriods", res.MeanDeliveryPeriods, tc.delay},
			{"DecisionLatency.Mean", res.DecisionLatency.Mean(), tc.latencyAvg},
		} {
			if v.got != v.want && !(math.IsNaN(v.got) && math.IsNaN(v.want)) {
				t.Errorf("gated=%v: %s = %.17g, want exactly %.17g", tc.gated, v.name, v.got, v.want)
			}
		}
	}
}

// TestGoldenRelayTrials pins the end-to-end pipeline's relay hop counts
// from a dense to a partitioned network. The values were recorded before
// the network was built lazily and must stay exact.
func TestGoldenRelayTrials(t *testing.T) {
	for _, tc := range []struct {
		n         int
		commRange float64
		want      string
	}{
		{240, 6000, "0.95999999999999996 1 0"},
		{180, 6000, "0.91666666666666663 1 0"},
		{120, 2500, "0.063333333333333339 0.089086859688195991 0.09166666666666666"},
	} {
		cfg := systemGoldenConfig()
		cfg.Params.N = tc.n
		cfg.CommRange = tc.commRange
		cfg.Trials = 300
		cfg.Workers = 2
		res, err := sim.RunSystem(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%.17g %.17g %.17g", res.DetectionProb, res.DeliveredFrac, res.MeanDeliveryPeriods)
		if got != tc.want {
			t.Errorf("N=%d range %v: got %q, want exactly %q", tc.n, tc.commRange, got, tc.want)
		}
	}
}
