package system

import (
	"fmt"
	"math"
	"testing"
)

// TestGoldenFalseAlarmCampaigns pins the end-to-end pipeline with false
// alarms under both decision rules. The values were recorded before the
// trial helpers were shared with the sim package and must stay exact.
func TestGoldenFalseAlarmCampaigns(t *testing.T) {
	for _, tc := range []struct {
		gated                        bool
		detections                   int
		delivered, delay, latencyAvg float64
	}{
		{false, 266, 0.99970492770728825, 0.00029515938606847696, 9.1917293233082713},
		{true, 237, 0.99970492770728825, 0.00029515938606847696, 10.278481012658228},
	} {
		cfg := baseConfig()
		cfg.Trials = 300
		cfg.Workers = 2
		cfg.FalseAlarmP = 0.001
		cfg.Gated = tc.gated
		res, err := Run(cfg)
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
		cfg := baseConfig()
		cfg.Params.N = tc.n
		cfg.CommRange = tc.commRange
		cfg.Trials = 300
		cfg.Workers = 2
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%.17g %.17g %.17g", res.DetectionProb, res.DeliveredFrac, res.MeanDeliveryPeriods)
		if got != tc.want {
			t.Errorf("N=%d range %v: got %q, want exactly %q", tc.n, tc.commRange, got, tc.want)
		}
	}
}
