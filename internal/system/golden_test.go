package system

import (
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
