package sim

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/faults"
	"github.com/groupdetect/gbd/internal/geom"
	"github.com/groupdetect/gbd/internal/infer"
	"github.com/groupdetect/gbd/internal/netsim"
	"github.com/groupdetect/gbd/internal/sensing"
)

// runTrial is the simulator's one scalar trial: deploy the fleet, index
// it, draw the track, then per period sense, deliver and decide. Every
// option rides the same per-period report stream: sensors can be dead (no
// sensing, no relaying), reports can be lost or delayed by a delivery
// model, beacons and the failure inferencer watch the uplink, and false
// alarms and dwell-time sensing change what is generated. With none of
// them set it is the paper's plain trial, and Faults stays zero.
//
// fleet lists the deployed sensor classes; sensor ids run class by class.
// All randomness flows through the one per-trial rng in a fixed order
// (deployment class by class, fault masks, track, then per-period sensing
// class by class and delivery), so results are independent of worker
// scheduling.
func runTrial(cfg Config, fleet []detect.SensorClass, trial int, detailed bool) (*TrialResult, error) {
	trialsTotal.Inc()
	if trialTick.Add(1)&trialSampleMask == 0 {
		start := time.Now()
		defer func() { trialSeconds.Observe(time.Since(start).Seconds()) }()
	}
	p := cfg.Params
	scratch := getScratch()
	defer scratchPool.Put(scratch)
	rng := scratch.stream.At(cfg.RNG, cfg.Seed, int64(trial))
	bounds := geom.Square(p.FieldSide)
	if err := scratch.deploy(fleet, bounds, rng); err != nil {
		return nil, err
	}
	sensors := scratch.sensors
	n := len(sensors)
	fa, err := sensing.NewFalseAlarm(cfg.FalseAlarmP)
	if err != nil {
		return nil, err
	}
	var exposure sensing.Exposure
	if cfg.ExposureLambda > 0 {
		if exposure, err = sensing.NewExposure(p.Rs, cfg.ExposureLambda); err != nil {
			return nil, err
		}
	}

	mission := cfg.MissionPeriods

	// Fault masks for the whole mission, drawn before the track so the
	// rng order is stable regardless of the motion model.
	var masks [][]bool
	if cfg.Faults != nil {
		masks, err = cfg.Faults.Masks(sensors, bounds, mission, rng)
		if err != nil {
			return nil, err
		}
		if len(masks) != mission {
			return nil, fmt.Errorf("fault model returned %d masks for %d periods: %w", len(masks), mission, ErrConfig)
		}
		for t, m := range masks {
			if len(m) != n {
				return nil, fmt.Errorf("fault mask %d covers %d of %d nodes: %w", t+1, len(m), n, ErrConfig)
			}
		}
	}

	// The communication substrate: a base station at the node nearest the
	// field center (assumed mains-powered, so it never fails), and a
	// unit-disk network over the survivors of each period. The flat
	// single-hop uplink (PDeliver) is the alternative substrate; the two
	// are mutually exclusive (withDefaults enforces it).
	withDelivery := cfg.CommRange > 0 && n > 0
	uplink := cfg.PDeliver > 0 && cfg.PDeliver < 1
	relay := &scratch.relay
	if withDelivery {
		if err := relay.rebuild(sensors, cfg.CommRange, bounds); err != nil {
			return nil, err
		}
	}

	// The failure inferencer watches the per-period report stream. It
	// consumes no randomness — all its inputs are what the base station
	// observed — so enabling it never perturbs the trial.
	var eng *infer.Engine
	var arrivedNow, allAlive []bool
	var inferStats *InferStats
	if cfg.Infer != nil {
		eng, err = infer.New(n, *cfg.Infer)
		if err != nil {
			return nil, err
		}
		arrivedNow = make([]bool, n)
		inferStats = &InferStats{}
		if cfg.Faults == nil {
			allAlive = make([]bool, n)
			for i := range allAlive {
				allAlive[i] = true
			}
		}
	}

	track, err := cfg.sampleTrack(bounds, rng)
	if err != nil {
		return nil, err
	}

	tr := &TrialResult{}
	var reported map[int]bool
	if detailed {
		tr.Track = track
		tr.Sensors = append([]geom.Point(nil), sensors...) // sensors is pooled scratch
		tr.PerPeriod = make([]int, mission)
		reported = make(map[int]bool)
	}
	arrivals := ints(scratch.perPeriod, mission+1) // 1-based arrival period at the base
	scratch.perPeriod = arrivals
	aliveFracSum := 0.0

	// Per-period link telemetry for the inferencer: frames (reports and
	// beacons) handed to the delivery layer and frames that arrived
	// within their generating period. Late relay arrivals still count
	// toward K-of-M at their arrival period, but the inferencer treats
	// them as losses — silence now, whatever arrives later.
	genNow, delNow := 0, 0

	// heard marks sensor id as observed at the base this period.
	heard := func(id int) {
		delNow++
		if arrivedNow != nil {
			arrivedNow[id] = true
		}
	}

	// deliver routes one report generated in period through the network
	// (or the flat uplink, or counts it directly when delivery modeling
	// is off).
	deliver := func(id, period int, mask []bool) error {
		tr.Faults.Generated++
		genNow++
		if uplink {
			if rng.Float64() < cfg.PDeliver {
				arrivals[period]++
				tr.Faults.Delivered++
				heard(id)
				if detailed {
					reported[id] = true
				}
			} else {
				tr.Faults.Lost++
			}
			return nil
		}
		if !withDelivery {
			arrivals[period]++
			tr.Faults.Delivered++
			heard(id)
			if detailed {
				reported[id] = true
			}
			return nil
		}
		d, err := relay.send(id, mask, cfg.Loss, rng)
		if err != nil {
			return err
		}
		if d.Rerouted {
			tr.Faults.Rerouted++
		}
		switch d.Outcome {
		case netsim.Delivered:
			arrivals[period]++
			tr.Faults.Delivered++
			heard(id)
			if detailed {
				reported[id] = true
			}
		case netsim.Late:
			at := period + d.PeriodsLate(p.T)
			if at > mission {
				tr.Faults.Lost++ // the mission ended before it arrived
				return nil
			}
			arrivals[at]++
			tr.Faults.Late++
			if detailed {
				reported[id] = true
			}
		case netsim.Lost:
			tr.Faults.Lost++
		}
		return nil
	}

	// beacon sends one status beacon through the same delivery substrate
	// as reports. Beacons never count toward the K-of-M rule and are
	// excluded from the FaultStats report accounting; they exist for the
	// telemetry and the arrival vector.
	beacon := func(id int, mask []bool) error {
		genNow++
		if uplink {
			if rng.Float64() < cfg.PDeliver {
				heard(id)
			}
			return nil
		}
		if !withDelivery {
			heard(id)
			return nil
		}
		d, err := relay.send(id, mask, cfg.Loss, rng)
		if err != nil {
			return err
		}
		if d.Outcome == netsim.Delivered {
			heard(id)
		}
		return nil
	}

	buf := scratch.buf
	for period := 1; period <= mission; period++ {
		genNow, delNow = 0, 0
		for i := range arrivedNow {
			arrivedNow[i] = false
		}
		var mask []bool
		if masks != nil {
			mask = masks[period-1]
			aliveFracSum += faults.AliveFraction(mask)
		} else {
			aliveFracSum++
		}
		seg := geom.Segment{A: track[period-1], B: track[period]}
		segSpeed := seg.Length() / p.T.Seconds()
		off := 0
		for c, cl := range fleet {
			disk := sensing.Disk{Rs: cl.Rs, Pd: cl.Pd}
			buf = scratch.idx[c].QuerySegment(seg, cl.Rs, buf[:0])
			for _, id := range buf {
				id += off
				if mask != nil && !mask[id] {
					continue // dead sensors do not sense
				}
				detected := false
				if cfg.ExposureLambda > 0 {
					detected = exposure.Detects(sensors[id], seg, segSpeed, rng)
				} else {
					detected = disk.Detects(sensors[id], seg, rng)
				}
				if detected {
					if err := deliver(id, period, mask); err != nil {
						return nil, err
					}
				}
			}
			off += cl.Count
		}
		if fa.P > 0 {
			for s := 0; s < n; s++ {
				if mask != nil && !mask[s] {
					continue // dead sensors do not false-alarm either
				}
				if fa.Fires(rng) {
					if err := deliver(s, period, mask); err != nil {
						return nil, err
					}
				}
			}
		}
		if cfg.Beacons {
			for s := 0; s < n; s++ {
				if mask != nil && !mask[s] {
					continue // dead sensors beacon least of all
				}
				if err := beacon(s, mask); err != nil {
					return nil, err
				}
			}
		}
		if eng != nil {
			if err := eng.Observe(arrivedNow, genNow, delNow); err != nil {
				return nil, err
			}
			inferStats.Generated += genNow
			inferStats.Delivered += delNow
			truth := allAlive
			if mask != nil {
				truth = mask
			}
			c, err := eng.Score(truth)
			if err != nil {
				return nil, err
			}
			inferStats.PerPeriod.Add(c)
			inferStats.Periods += n
		}
	}
	scratch.buf = buf
	tr.Faults.MeanAliveFrac = aliveFracSum / float64(mission)

	// End-of-mission inference scoring: the final mask confusion, the
	// declaration/retraction tallies, and time-to-detect for every dead
	// sensor the engine caught at or after its true death period.
	if eng != nil {
		final := allAlive
		if masks != nil {
			final = masks[mission-1]
		}
		c, err := eng.Score(final)
		if err != nil {
			return nil, err
		}
		inferStats.Final = c
		inferStats.Sensors = n
		inferStats.Declarations = eng.Declarations()
		inferStats.Retractions = eng.Retractions()
		inferStats.InferredDead = eng.DeadCount()
		for i := 0; i < n; i++ {
			if final[i] {
				continue
			}
			inferStats.TruthDead++
			died := 0
			for t := 0; t < mission; t++ {
				if !masks[t][i] {
					died = t + 1
					break
				}
			}
			if at := eng.DeclaredAt(i); died != 0 && at >= died {
				inferStats.TTDSum += at - died + 1
				inferStats.TTDCount++
			}
		}
		infer.CountFalseAlarms(c.FP)
		tr.Infer = inferStats
	}

	// The base evaluates the K-of-M sliding window on what actually
	// arrived, period by period.
	for period := 1; period <= mission; period++ {
		tr.Reports += arrivals[period]
	}
	if detailed {
		copy(tr.PerPeriod, arrivals[1:])
	}
	tr.DetectedAt = firstDetection(arrivals, p.M, p.K)
	if !cfg.faulty() {
		tr.Faults = FaultStats{} // the plain trial reports no fault accounting
	}
	tr.Detected = tr.DetectedAt > 0
	if detailed {
		tr.Reporters = make([]int, 0, len(reported))
		for id := range reported {
			tr.Reporters = append(tr.Reporters, id)
		}
	}
	return tr, nil
}

// relayState owns the communication network of one trial: the full
// unit-disk graph, the base station choice, and a routing table toward the
// base that is Reset — not rebuilt — only when the alive mask changes.
// Routing over the alive mask reproduces what the Subset-and-rebuild path
// computed, draw for draw (see netsim.Routing), without reconstructing a
// network per mask epoch. It lives in the pooled trial scratch, so the
// network and table are rebuilt in place trial after trial.
type relayState struct {
	net  netsim.Network
	base int // base station id

	// Routing state for the current mask.
	aimed   bool   // routing is aimed at this trial's network and mask
	mask    []bool // the mask routing is aimed at; empty when all alive
	keep    []bool // mask with the base forced alive
	routing netsim.Routing
}

// rebuild re-aims the relay at a new deployment.
func (r *relayState) rebuild(sensors []geom.Point, commRange float64, bounds geom.Rect) error {
	if err := r.net.Rebuild(sensors, commRange, bounds); err != nil {
		return err
	}
	r.base = netsim.CenterNode(sensors, bounds)
	r.aimed = false
	return nil
}

// send forwards a report from sensor id to the base over the network
// induced by the alive mask (nil means everyone is alive). The base is
// protected: it relays even when the mask marks it dead.
func (r *relayState) send(id int, mask []bool, loss netsim.LossModel, rng *rand.Rand) (netsim.Delivery, error) {
	if err := r.aim(mask); err != nil {
		return netsim.Delivery{}, err
	}
	if mask != nil && !mask[id] && id != r.base {
		// Defensive: dead sensors are filtered before sensing, so a report
		// from one is a bug in the caller.
		return netsim.Delivery{}, fmt.Errorf("report from dead sensor %d: %w", id, ErrConfig)
	}
	return r.routing.Send(id, loss, rng)
}

// aim points the routing table at mask when it is not already.
func (r *relayState) aim(mask []bool) error {
	if r.aimed && sameMask(r.mask, mask) {
		return nil
	}
	r.mask = append(r.mask[:0], mask...)
	var alive []bool
	if mask != nil {
		r.keep = append(r.keep[:0], mask...)
		r.keep[r.base] = true // the base station survives
		alive = r.keep
	}
	if !r.aimed {
		r.aimed = true
		return r.routing.Rebuild(&r.net, r.base, alive)
	}
	return r.routing.Reset(alive)
}

func sameMask(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
