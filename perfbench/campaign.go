package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"time"

	gbd "github.com/groupdetect/gbd"
	"github.com/groupdetect/gbd/internal/faults"
	"github.com/groupdetect/gbd/internal/netsim"
)

// config is the job's simulation. plain uses the philox scheme and so the
// SoA batch engine; legacy is the default scheme gbd-experiments,
// gbd-sim and /v1/simulate use; faulty and lossy are the fault-injection
// studies' trial classes under philox.
func (j campaignJob) config(trials int, seed int64) gbd.SimConfig {
	p := gbd.Defaults()
	p.N = j.N
	cfg := gbd.SimConfig{Params: p, Trials: trials, Seed: seed, Workers: nproc(), RNG: gbd.SchemePhilox}
	switch j.Class {
	case "legacy":
		cfg.RNG = gbd.SchemeLegacy
	case "faulty":
		cfg.Faults = faults.Bernoulli{DeadFrac: 0.2}
		cfg.PDeliver = 0.9
	case "lossy":
		cfg.CommRange = 6000
		cfg.Loss = netsim.LossModel{
			PerHopDelivery: 0.9,
			MaxRetries:     2,
			PerHop:         10 * time.Second,
			Backoff:        5 * time.Second,
			Budget:         p.T,
		}
	}
	return cfg
}

// placeConfig is the campaign's placement solve: sized to take about a
// second on two cores, where the CI smoke instance takes milliseconds.
func placeConfig(seed int64) gbd.PlacementConfig {
	p := gbd.Defaults()
	p.N = 120
	return gbd.PlacementConfig{
		Base: p, GridCols: 32, GridRows: 32, Trials: 4000,
		Seed: seed, RNG: gbd.SchemePhilox, Workers: nproc(),
	}
}

// warmTrials is the per-class trial count of the set-up warm-up run,
// which fills the simulator's scratch pools before timing.
const warmTrials = 1000

type campaignEnv struct {
	jobs     []campaignJob
	analysis map[int]float64 // N -> analytical detection probability
	place    gbd.PlacementConfig
}

func setupCampaign(cfg runConfig) (*campaignEnv, error) {
	env := &campaignEnv{jobs: campaignJobs(cfg.seed), analysis: map[int]float64{}, place: placeConfig(cfg.seed)}
	for _, n := range campaignNs {
		p := gbd.Defaults()
		p.N = n
		r, err := gbd.Analyze(p, gbd.MSOptions{})
		if err != nil {
			return nil, err
		}
		env.analysis[n] = r.DetectionProb
	}
	for _, c := range campaignClasses {
		j := campaignJob{Class: c, N: campaignNs[0]}
		if _, err := gbd.Simulate(j.config(warmTrials, cfg.seed+1)); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", c, err)
		}
	}
	return env, nil
}

// classStats accumulates one trial class's work counts across passes.
type classStats struct {
	trials int64
	cpu    time.Duration
	allocs uint64
}

// runCampaign is the campaign workload: the fixed job list, run pass
// after pass until --seconds elapse, each job using nproc workers.
func runCampaign(cfg runConfig) *report {
	rep := newReport()
	var rec *recorder
	var timed map[string]float64
	var timedDigest string
	if cfg.trace {
		timed, timedDigest = timedChild(cfg, rep)
		rec = newRecorder()
		cfg.seconds = max(1, cfg.seconds/2)
	}
	env, err := measureSetup(rep, cfg.trace, func() (*campaignEnv, error) { return setupCampaign(cfg) }, func(*campaignEnv) {})
	if err != nil {
		rep.op(err, "set-up")
		return rep
	}
	rep.op(checkDefaultProb(env.analysis[gbd.Defaults().N]), "default scenario")
	g0 := readGC()
	var heap *heapSampler
	if rec != nil {
		heap = startHeapSampler(10 * time.Millisecond)
	}
	stats := map[string]*classStats{}
	for _, c := range campaignClasses {
		stats[c] = &classStats{}
	}
	// times[j] holds job j's time in every pass; the placement solve is
	// the last job. Reporting per-job medians keeps a burst of CPU steal
	// on the shared host to the one pass it hit.
	times := make([][]float64, len(env.jobs)+1)
	var last *gbd.PlacementResult
	start := time.Now()
	for passes := 1; passes == 1 || time.Since(start) < cfg.dur(); passes++ {
		h := sha256.New()
		for i, j := range env.jobs {
			sc := j.config(campaignTrials, j.Seed)
			s0, t0, cpu0, a0 := rec.now(), time.Now(), cpuTime(), allocObjects()
			res, err := gbd.SimulateCtx(context.Background(), sc)
			d, cpu, allocs := time.Since(t0), cpuTime()-cpu0, allocObjects()-a0
			rec.add(span{Name: "sim." + j.Class, Start: s0, End: rec.now(), Count: int64(sc.Trials), CPU: int64(cpu), Allocs: int64(allocs)})
			if err == nil {
				analysis := -1.0
				if j.Class == "plain" || j.Class == "legacy" {
					analysis = env.analysis[j.N]
				}
				err = checkSim(res, sc.Trials, analysis)
				digestSim(h, j, res)
			}
			rep.op(err, "job "+j.String())
			st := stats[j.Class]
			st.trials += int64(sc.Trials)
			st.cpu += cpu
			st.allocs += allocs
			times[i] = append(times[i], d.Seconds())
		}
		s0, t0 := rec.now(), time.Now()
		pr, err := gbd.Place(env.place)
		d := time.Since(t0)
		rec.add(span{Name: "placement", Start: s0, End: rec.now()})
		if err == nil {
			err = checkPlacement(pr)
			fmt.Fprintf(h, "place %x %x %v\n", math.Float64bits(pr.VsUniform.PlacedProb),
				math.Float64bits(pr.VsUniform.UniformProb), pr.Sensors)
			last = pr
		}
		rep.op(err, "placement")
		times[len(env.jobs)] = append(times[len(env.jobs)], d.Seconds())
		digest := fmt.Sprintf("%x", h.Sum(nil))
		if rep.digest == "" {
			rep.digest = digest
		}
		rep.op(checkSameResults(fmt.Sprintf("pass %d", passes), digest, rep.digest), "repeat pass")
	}
	g1 := readGC()

	med := make([]float64, len(times))
	var pass, simTime, simTrials float64
	classTime := map[string]float64{}
	for i, ts := range times {
		med[i] = median(ts)
		pass += med[i]
		if i < len(env.jobs) {
			simTime += med[i]
			simTrials += campaignTrials
			classTime[env.jobs[i].Class] += med[i]
		}
	}
	placeS := med[len(env.jobs)]
	pointsMs := make([]float64, len(med))
	for i, m := range med {
		pointsMs[i] = m * 1e3
	}
	rep.e2e["ops_per_s"] = simTrials / simTime
	rep.e2e["op_p50_ms"] = quantile(pointsMs, 0.5)
	rep.e2e["op_p99_ms"] = quantile(pointsMs, 0.99)
	rep.e2e["wall_s"] = pass
	passes := len(times[0])
	rep.linef("input: %d jobs per pass (%v x N=%v, %d trials each) + one placement solve (N=%d, %dx%d grid, %d tracks)",
		len(env.jobs), campaignClasses, campaignNs, campaignTrials, env.place.Base.N, env.place.GridCols, env.place.GridRows, env.place.Trials)
	rep.linef("metric wall_s = %.4f s (a campaign pass, each job at its median over %d passes)", pass, passes)
	rep.linef("metric ops_per_s = %.1f 1/s (Monte Carlo trials per second over all sim jobs)", rep.e2e["ops_per_s"])
	rep.linef("metric op_p50_ms = %.2f ms (job-point medians, n=%d)", rep.e2e["op_p50_ms"], len(med))
	rep.linef("metric op_p99_ms = %.2f ms (job-point medians, n=%d)", rep.e2e["op_p99_ms"], len(med))
	classRate := map[string]float64{}
	for _, c := range campaignClasses {
		classRate[c] = float64(len(campaignNs)*campaignTrials) / classTime[c]
		rep.linef("metric sim_%s_trials_per_s = %.1f 1/s", c, classRate[c])
	}
	rep.linef("metric place_s = %.4f s (median of %d solves)", placeS, passes)

	if rec != nil {
		procLayer(rep, g0, g1, heap.peakMB())
		l := rep.layer
		for _, c := range campaignClasses {
			st := stats[c]
			tr := float64(st.trials)
			l["sim."+c+".trial_us"] = st.cpu.Seconds() * 1e6 / tr
			l["sim."+c+".trials_per_s"] = classRate[c]
			l["sim."+c+".allocs_per_trial"] = float64(st.allocs) / tr
			l["sim."+c+".cpu_util"] = st.cpu.Seconds() / (classTime[c] * float64(passes) * float64(nproc()))
		}
		l["placement.solve_s"] = placeS
		if last != nil {
			l["placement.evals"] = float64(last.Evals)
			l["placement.lazy_hit_ratio"] = float64(last.LazyHits) / float64(last.Evals+last.LazyHits)
		}
		if timed != nil {
			l["trace.overhead_frac"] = rep.e2e["wall_s"]/timed["wall_s"] - 1
			rep.op(checkSameResults("timed vs traced run", timedDigest, rep.digest), "timed vs traced")
		}
		if err := rec.write(cfg.tracePath(".jsonl"), hostFingerprint()); err != nil {
			rep.op(err, "write spans")
		}
	}
	return rep
}

// digestSim folds one job's results into the pass digest.
func digestSim(h hash.Hash, j campaignJob, r *gbd.SimResult) {
	fmt.Fprintf(h, "%s %d %d %x %x %+v\n", j, r.Trials, r.Detections,
		math.Float64bits(r.DetectionProb), math.Float64bits(r.MeanReports), r.Faults)
}
