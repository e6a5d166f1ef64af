package sim

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
	"github.com/groupdetect/gbd/internal/netsim"
	"github.com/groupdetect/gbd/internal/sensing"
	"github.com/groupdetect/gbd/internal/target"
	"github.com/groupdetect/gbd/internal/track"
)

// oracleOutcome is one end-to-end trial as the base station saw it.
type oracleOutcome struct {
	decided, generated, delivered, delaySum int
	tooLate                                 int // reports that arrived after period M
}

// oracleSystemTrial is the end-to-end trial as a standalone loop: a fresh
// deployment, index and network per trial, hop counts from a brute-force
// unit-disk BFS, arrivals bucketed by period and the decision taken with
// track.Decide at the end of every period. It is the draw-order reference
// for the end-to-end campaign: deployment, track, per-period sensing, then
// false alarms, all on the trial's legacy stream.
func oracleSystemTrial(cfg SystemConfig, trial int) (oracleOutcome, error) {
	var out oracleOutcome
	p := cfg.Params
	model := cfg.Model
	if model == nil {
		model = target.Straight{Step: p.Vt()}
	}
	bounds := geom.Square(p.FieldSide)
	disk := sensing.Disk{Rs: p.Rs, Pd: p.Pd}
	fa, err := sensing.NewFalseAlarm(cfg.FalseAlarmP)
	if err != nil {
		return out, err
	}
	gate, err := track.NewGate(p.V, p.T, p.Rs)
	if err != nil {
		return out, err
	}
	rng := field.NewStream().At(field.SchemeLegacy, cfg.Seed, int64(trial))
	sensors, err := field.Uniform(p.N, bounds, rng)
	if err != nil {
		return out, err
	}
	idx, err := field.NewIndex(sensors, bounds, field.CellSize(p.Rs, p.FieldSide))
	if err != nil {
		return out, err
	}
	hops := oracleHops(sensors, cfg.CommRange, netsim.CenterNode(sensors, bounds))

	tr, err := target.Sample(model, p.M, bounds, true, rng)
	if err != nil {
		return out, err
	}

	arrivals := make([][]track.Report, p.M+1)
	deliver := func(r track.Report, hopCount int) {
		out.generated++
		if hopCount < 0 {
			return
		}
		delay := int(math.Ceil(float64(time.Duration(hopCount)*cfg.PerHop) / float64(p.T)))
		if delay > 0 {
			delay--
		}
		at := r.Period + delay
		if at > p.M {
			out.tooLate++
			return
		}
		arrivals[at] = append(arrivals[at], r)
		out.delivered++
		out.delaySum += at - r.Period
	}

	var buf []int
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

	var inbox []track.Report
	for period := 1; period <= p.M && out.decided == 0; period++ {
		inbox = append(inbox, arrivals[period]...)
		if len(inbox) < p.K {
			continue
		}
		dec, err := track.Decide(inbox, p.K, p.M, gate, cfg.Gated)
		if err != nil {
			return out, err
		}
		if dec.Detected {
			out.decided = period
		}
	}
	return out, nil
}

// oracleHops is the shortest hop count from base to every node of the
// unit-disk graph over pts, by BFS over all-pairs distances; -1 marks a
// node cut off from base.
func oracleHops(pts []geom.Point, commRange float64, base int) []int {
	hops := make([]int, len(pts))
	for i := range hops {
		hops[i] = -1
	}
	hops[base] = 0
	queue := []int{base}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v := range pts {
			if hops[v] < 0 && pts[u].Dist2(pts[v]) <= commRange*commRange {
				hops[v] = hops[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return hops
}

// systemGrid is the differential's configuration grid: sparse to dense
// fleets, a fragmented and a connected radio range, hop latencies that
// stay within a period and ones that push reports late or past period M,
// both decision rules, with and without false alarms, on a straight and a
// random-walk track.
func systemGrid() []SystemConfig {
	var grid []SystemConfig
	for _, n := range []int{60, 120, 240} {
		for _, commRange := range []float64{2500, 6000} {
			for _, perHop := range []time.Duration{10 * time.Second, 30 * time.Second} {
				for _, gated := range []bool{false, true} {
					for _, fa := range []float64{0, 0.001} {
						for _, walk := range []bool{false, true} {
							p := detect.Defaults().WithN(n)
							var model target.Model
							if walk {
								model = target.RandomWalk{Step: p.Vt(), MaxTurn: math.Pi / 4}
							}
							grid = append(grid, SystemConfig{
								Params: p, CommRange: commRange, PerHop: perHop,
								FalseAlarmP: fa, Gated: gated, Model: model,
								Trials: 60, Seed: int64(n) + 7,
							})
						}
					}
				}
			}
		}
	}
	return grid
}

// TestSystemDrawOrderDifferential runs every grid configuration through
// the reference trial loop and through RunSystem's trial kernel and
// requires the same decision period and report accounting trial by trial,
// and the same campaign aggregates, bit for bit.
func TestSystemDrawOrderDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential over the full configuration grid")
	}
	late, tooLate := 0, 0
	for _, cfg := range systemGrid() {
		c, err := cfg.config()
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("N=%d range=%v hop=%v gated=%v fa=%v walk=%v",
			cfg.Params.N, cfg.CommRange, cfg.PerHop, cfg.Gated, cfg.FalseAlarmP, cfg.Model != nil)
		var detections, generated, delivered, delaySum, decidedSum int
		for trial := 0; trial < cfg.Trials; trial++ {
			want, err := oracleSystemTrial(cfg, trial)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := runTrial(c, c.fleet(), trial, false)
			if err != nil {
				t.Fatal(err)
			}
			got := oracleOutcome{
				decided:   tr.DetectedAt,
				generated: tr.Faults.Generated,
				delivered: tr.Faults.Delivered + tr.Faults.Late,
				delaySum:  tr.delay,
				tooLate:   want.tooLate,
			}
			if got != want {
				t.Fatalf("%s trial %d: kernel %+v, reference %+v", label, trial, got, want)
			}
			if want.decided > 0 {
				detections++
				decidedSum += want.decided
			}
			generated += want.generated
			delivered += want.delivered
			delaySum += want.delaySum
			tooLate += want.tooLate
			if want.delaySum > 0 {
				late++
			}
		}
		res, err := RunSystem(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var delFrac, meanDelay, meanDecided float64
		if generated > 0 {
			delFrac = float64(delivered) / float64(generated)
		}
		if delivered > 0 {
			meanDelay = float64(delaySum) / float64(delivered)
		}
		if detections > 0 {
			meanDecided = float64(decidedSum) / float64(detections)
		}
		if res.Detections != detections || res.DeliveredFrac != delFrac ||
			res.MeanDeliveryPeriods != meanDelay || res.DecisionLatency.Mean() != meanDecided {
			t.Errorf("%s: campaign (%d, %v, %v, %v), reference (%d, %v, %v, %v)", label,
				res.Detections, res.DeliveredFrac, res.MeanDeliveryPeriods, res.DecisionLatency.Mean(),
				detections, delFrac, meanDelay, meanDecided)
		}
	}
	if late == 0 || tooLate == 0 {
		t.Errorf("grid exercised %d late trials and %d reports past period M; want both", late, tooLate)
	}
}

// TestSystemPerfectChannelMatchesRun: with a radio range beyond the field
// diagonal every sensor is one hop from the base, a 10 s hop fits in the
// period, and the ungated base counts raw reports, so the end-to-end
// campaign is the sensing-only simulator draw for draw.
func TestSystemPerfectChannelMatchesRun(t *testing.T) {
	for _, fa := range []float64{0, 0.001} {
		p := detect.Defaults()
		if d := math.Sqrt2 * p.FieldSide; d >= 50_000 {
			t.Fatalf("field diagonal %v reaches the radio range", d)
		}
		sys, err := RunSystem(context.Background(), SystemConfig{
			Params: p, CommRange: 50_000, PerHop: 10 * time.Second,
			FalseAlarmP: fa, Trials: 2000, Seed: 21, Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Run(Config{Params: p, FalseAlarmP: fa, Trials: 2000, Seed: 21, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if sys.Detections != plain.Detections {
			t.Errorf("fa=%v: Detections %d, sim.Run %d", fa, sys.Detections, plain.Detections)
		}
		if !reflect.DeepEqual(sys.DecisionLatency, plain.Latency) {
			t.Errorf("fa=%v: DecisionLatency %+v, sim.Run Latency %+v", fa, sys.DecisionLatency, plain.Latency)
		}
		if sys.DeliveredFrac != 1 || sys.MeanDeliveryPeriods != 0 {
			t.Errorf("fa=%v: delivered %v, delay %v; want 1 and 0", fa, sys.DeliveredFrac, sys.MeanDeliveryPeriods)
		}
	}
}
