package sim

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/geom"
	"github.com/groupdetect/gbd/internal/infer"
	"github.com/groupdetect/gbd/internal/netsim"
	"github.com/groupdetect/gbd/internal/sensing"
	"github.com/groupdetect/gbd/internal/track"
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
// (deployment class by class, fault deaths, track, then per-period sensing
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
	if err := scratch.deploy(fleet, bounds); err != nil {
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

	// Fault deaths for the whole mission, drawn before the track so the
	// rng order is stable regardless of the motion model. A sensor is
	// dead in period t when deaths[id] <= t. mask is the alive mask of
	// the current period, updated only in periods where a death lands,
	// and dying[t] counts the deaths landing in period t.
	var deaths, dying []int
	var mask []bool
	alive := n
	if cfg.Faults != nil {
		if deaths, err = cfg.Faults.Deaths(scratch.deaths, sensors, bounds, mission, rng); err != nil {
			return nil, err
		}
		scratch.deaths = deaths
		if len(deaths) != n {
			return nil, fmt.Errorf("fault model returned deaths for %d of %d nodes: %w", len(deaths), n, ErrConfig)
		}
		dying = ints(scratch.dying, mission+2)
		scratch.dying = dying
		for id, d := range deaths {
			if d < 1 || d > mission+1 {
				return nil, fmt.Errorf("sensor %d death period %d outside [1, %d]: %w", id, d, mission+1, ErrConfig)
			}
			dying[d]++
		}
		mask = bools(scratch.mask, n)
		scratch.mask = mask
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
		if err := relay.rebuild(sensors, cfg.CommRange, bounds, mask); err != nil {
			return nil, err
		}
	}

	// The failure inferencer watches the per-period report stream. It
	// consumes no randomness — all its inputs are what the base station
	// observed — so enabling it never perturbs the trial.
	var eng *infer.Engine
	var arrivedNow, truth []bool
	var inferStats *InferStats
	if cfg.Infer != nil {
		eng, err = infer.New(n, *cfg.Infer)
		if err != nil {
			return nil, err
		}
		arrivedNow = make([]bool, n)
		inferStats = &InferStats{}
		truth = mask
		if truth == nil {
			truth = bools(nil, n)
		}
	}

	path, err := cfg.sampleTrack(bounds, rng)
	if err != nil {
		return nil, err
	}

	tr := &TrialResult{}
	var reported map[int]bool
	if detailed {
		tr.Track = path
		tr.Sensors = append([]geom.Point(nil), sensors...) // sensors is pooled scratch
		tr.PerPeriod = make([]int, mission)
		reported = make(map[int]bool)
	}
	arrivals := ints(scratch.perPeriod, mission+1) // 1-based arrival period at the base
	scratch.perPeriod = arrivals
	scratch.arrived = scratch.arrived[:0]
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

	// deliver routes one report generated in period to the base: over the
	// flat uplink, the lossy relay network, or the relay's shortest path at
	// a fixed per-hop latency (no draw), or straight to the base when
	// delivery modeling is off. A report that arrives after the mission
	// ends counts as lost.
	deliver := func(id, period int) error {
		tr.Faults.Generated++
		genNow++
		at, late := period, false // arrival period at the base; 0 when lost
		switch {
		case uplink:
			if rng.Float64() >= cfg.PDeliver {
				at = 0
			}
		case cfg.perHop > 0:
			hops, err := relay.hops(id)
			if err != nil {
				return err
			}
			if hops < 0 {
				at = 0 // cut off from the base
				break
			}
			delay := netsim.Delivery{Latency: time.Duration(hops) * cfg.perHop}.PeriodsLate(p.T)
			at, late = period+delay, delay > 0
		case withDelivery:
			d, err := relay.send(id, cfg.Loss, rng)
			if err != nil {
				return err
			}
			if d.Rerouted {
				tr.Faults.Rerouted++
			}
			switch d.Outcome {
			case netsim.Late:
				at, late = period+d.PeriodsLate(p.T), true
			case netsim.Lost:
				at = 0
			}
		}
		if at == 0 || at > mission {
			tr.Faults.Lost++
			return nil
		}
		arrivals[at]++
		tr.delay += at - period
		if late {
			tr.Faults.Late++
		} else {
			tr.Faults.Delivered++
			heard(id)
		}
		if detailed {
			reported[id] = true
		}
		if cfg.gated {
			scratch.arrived = append(scratch.arrived, arrival{at: at, report: track.Report{Sensor: id, Pos: sensors[id], Period: period}})
		}
		return nil
	}

	// beacon sends one status beacon through the same delivery substrate
	// as reports. Beacons never count toward the K-of-M rule and are
	// excluded from the FaultStats report accounting; they exist for the
	// telemetry and the arrival vector.
	beacon := func(id int) error {
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
		d, err := relay.send(id, cfg.Loss, rng)
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
		if dying != nil && dying[period] > 0 {
			for id, d := range deaths {
				if d == period {
					mask[id] = false
				}
			}
			alive -= dying[period]
			relay.stale = true
		}
		if n > 0 {
			aliveFracSum += float64(alive) / float64(n)
		} else {
			aliveFracSum++
		}
		seg := geom.Segment{A: path[period-1], B: path[period]}
		segSpeed := seg.Length() / p.T.Seconds()
		off := 0
		for c, cl := range fleet {
			disk := sensing.Disk{Rs: cl.Rs, Pd: cl.Pd}
			buf = scratch.idx[c].QuerySegment(seg, cl.Rs, buf[:0])
			for _, id := range buf {
				id += off
				if deaths != nil && deaths[id] <= period {
					continue // dead sensors do not sense
				}
				detected := false
				if cfg.ExposureLambda > 0 {
					detected = exposure.Detects(sensors[id], seg, segSpeed, rng)
				} else {
					detected = disk.Detects(sensors[id], seg, rng)
				}
				if detected {
					if err := deliver(id, period); err != nil {
						return nil, err
					}
				}
			}
			off += cl.Count
		}
		if fa.P > 0 {
			for s := 0; s < n; s++ {
				if deaths != nil && deaths[s] <= period {
					continue // dead sensors do not false-alarm either
				}
				if fa.Fires(rng) {
					if err := deliver(s, period); err != nil {
						return nil, err
					}
				}
			}
		}
		if cfg.Beacons {
			for s := 0; s < n; s++ {
				if deaths != nil && deaths[s] <= period {
					continue // dead sensors beacon least of all
				}
				if err := beacon(s); err != nil {
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
		c, err := eng.Score(truth)
		if err != nil {
			return nil, err
		}
		inferStats.Final = c
		inferStats.Sensors = n
		inferStats.Declarations = eng.Declarations()
		inferStats.Retractions = eng.Retractions()
		inferStats.InferredDead = eng.DeadCount()
		for i := 0; i < n; i++ {
			if truth[i] {
				continue
			}
			inferStats.TruthDead++
			died := deaths[i]
			if at := eng.DeclaredAt(i); at >= died {
				inferStats.TTDSum += at - died + 1
				inferStats.TTDCount++
			}
		}
		infer.CountFalseAlarms(c.FP)
		tr.Infer = inferStats
	}

	// The base evaluates the K-of-M sliding window on what actually
	// arrived, period by period; the gated base also asks the reports to
	// form one kinematically consistent track.
	for period := 1; period <= mission; period++ {
		tr.Reports += arrivals[period]
	}
	if detailed {
		copy(tr.PerPeriod, arrivals[1:])
	}
	if cfg.gated {
		if tr.DetectedAt, err = scratch.gatedDetection(arrivals, p); err != nil {
			return nil, err
		}
	} else {
		tr.DetectedAt = firstDetection(arrivals, p.M, p.K)
	}
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

	// mask is the trial's alive mask, nil when everyone is alive; the
	// kernel updates it in place and sets stale when a death lands.
	mask  []bool
	stale bool
	aimed bool   // routing is aimed at this trial's network
	keep  []bool // mask with the base forced alive
	// routing is aimed lazily, at the first send after a change.
	routing netsim.Routing
}

// rebuild re-aims the relay at a new deployment and its alive mask.
func (r *relayState) rebuild(sensors []geom.Point, commRange float64, bounds geom.Rect, mask []bool) error {
	if err := r.net.Rebuild(sensors, commRange, bounds); err != nil {
		return err
	}
	r.base = netsim.CenterNode(sensors, bounds)
	r.mask = mask
	r.aimed = false
	return nil
}

// send forwards a report from sensor id to the base over the network
// induced by the alive mask. The base is protected: it relays even when
// the mask marks it dead.
func (r *relayState) send(id int, loss netsim.LossModel, rng *rand.Rand) (netsim.Delivery, error) {
	if err := r.aim(); err != nil {
		return netsim.Delivery{}, err
	}
	if r.mask != nil && !r.mask[id] && id != r.base {
		// Defensive: dead sensors are filtered before sensing, so a report
		// from one is a bug in the caller.
		return netsim.Delivery{}, fmt.Errorf("report from dead sensor %d: %w", id, ErrConfig)
	}
	return r.routing.Send(id, loss, rng)
}

// hops returns sensor id's shortest-path hop count to the base over the
// alive mask, or -1 when it is cut off. It makes no draw.
func (r *relayState) hops(id int) (int, error) {
	if err := r.aim(); err != nil {
		return 0, err
	}
	return r.routing.Hops(id)
}

// aim points the routing table at the current mask when it is not already.
func (r *relayState) aim() error {
	if r.aimed && !r.stale {
		return nil
	}
	r.stale = false
	var alive []bool
	if r.mask != nil {
		r.keep = append(r.keep[:0], r.mask...)
		r.keep[r.base] = true // the base station survives
		alive = r.keep
	}
	if !r.aimed {
		r.aimed = true
		return r.routing.Rebuild(&r.net, r.base, alive)
	}
	return r.routing.Reset(alive)
}
