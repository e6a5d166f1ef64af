// Command gbd-design runs the complete deployment-design workflow for a
// surveillance scenario: size the fleet for a detection requirement, pick
// the report threshold from a false alarm budget, audit coverage voids and
// breach corridors, verify multi-hop delivery, and report parameter
// sensitivities — everything a system designer needs before committing to
// hardware.
//
// With -place the workflow answers the placement question instead: where
// do my N sensors go? The lazy-greedy optimizer places the budget on a
// candidate grid and reports the layout against the paper's
// uniform-random deployment at equal N. -sweep runs the checkpointable
// budget sweep from the experiments registry.
//
// Usage:
//
//	gbd-design [flags]
//
// Examples:
//
//	gbd-design -target 0.9 -fa 1e-4 -budget 0.01 -horizon 1440
//	gbd-design -place -place-n 120 -grid 32x32
//	gbd-design -place -classes 80:1000:0.9,40:2000:0.7 -place-out layout.json
//	gbd-design -place -sweep -checkpoint place.ckpt
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	gbd "github.com/groupdetect/gbd"
	"github.com/groupdetect/gbd/internal/checkpoint"
	"github.com/groupdetect/gbd/internal/experiments"
	"github.com/groupdetect/gbd/internal/falsealarm"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
	"github.com/groupdetect/gbd/internal/netsim"
	"github.com/groupdetect/gbd/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gbd-design:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("gbd-design", flag.ContinueOnError)
	var (
		side      = fs.Float64("side", 32000, "field side length (m)")
		rs        = fs.Float64("rs", 1000, "sensing range (m)")
		v         = fs.Float64("v", 10, "design target speed (m/s)")
		period    = fs.Duration("t", time.Minute, "sensing period")
		pd        = fs.Float64("pd", 0.9, "in-range detection probability")
		m         = fs.Int("m", 20, "detection window (periods)")
		targetP   = fs.Float64("target", 0.9, "required detection probability")
		nMax      = fs.Int("n-max", 1000, "largest fleet considered")
		fa        = fs.Float64("fa", 1e-4, "per-sensor per-period false alarm probability")
		budget    = fs.Float64("budget", 0.01, "system false-alarm budget over the horizon")
		horizon   = fs.Int("horizon", 1440, "false-alarm horizon (periods)")
		commRange = fs.Float64("comm", 6000, "communication range (m)")
		perHop    = fs.Duration("hop", 10*time.Second, "per-hop forwarding latency")
		seed      = fs.Int64("seed", 1, "random seed for deployment audits")

		place       = fs.Bool("place", false, "run the placement engine: where do my N sensors go")
		placeN      = fs.Int("place-n", 120, "placement budget (ignored when -classes is set)")
		gridSpec    = fs.String("grid", "32x32", "candidate grid as COLSxROWS")
		classSpec   = fs.String("classes", "", "heterogeneous fleet as count:rs:pd,... (overrides -place-n)")
		placeTrials = fs.Int("place-trials", 2000, "Monte Carlo track panel size for -place")
		rngName     = fs.String("rng", "", "placement RNG scheme: legacy (default) or philox")
		minGain     = fs.Float64("min-gain", math.Inf(-1), "fail unless placed beats uniform by at least this absolute gain")
		placeOut    = fs.String("place-out", "", "write the placed layout as JSON to this file")
		sweepB      = fs.Bool("sweep", false, "with -place: run the budget sweep from the experiments registry")
		sweepW      = fs.Int("sweep-workers", 0, "placement precompute workers (0 = all cores); output is identical at any setting")
		quick       = fs.Bool("quick", false, "with -sweep: reduced budgets and grid")
		ckptPath    = fs.String("checkpoint", "", "with -sweep: record completed budgets in this file")
		resume      = fs.Bool("resume", false, "resume from an existing -checkpoint file")
	)
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	scheme, err := field.ParseRNGScheme(*rngName)
	if err != nil {
		return err
	}
	sess, err := obsFlags.Start("gbd-design", args)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
	}()
	// LIFO: RecordOutcome classifies err into the manifest status before
	// Close stamps and writes the manifest.
	defer func() { sess.RecordOutcome(err) }()
	sess.SetSeed(*seed)

	p := gbd.Params{
		N: 1, FieldSide: *side, Rs: *rs, V: *v, T: *period,
		Pd: *pd, M: *m, K: 1,
	}

	if *place {
		ctx, cancel := sess.SignalContext(context.Background())
		defer cancel()
		pc := placeCmd{
			p: p, fa: *fa, budget: *budget, horizon: *horizon,
			placeN: *placeN, gridSpec: *gridSpec, classSpec: *classSpec,
			trials: *placeTrials, seed: *seed, rng: scheme,
			minGain: *minGain, outPath: *placeOut,
			workers: *sweepW, quick: *quick,
			ckptPath: *ckptPath, resume: *resume,
		}
		if *sweepB {
			return pc.runSweep(ctx, sess)
		}
		return pc.runOnce(ctx, sess)
	}

	// 1. Report threshold from the false alarm budget (needs N; iterate:
	// K depends weakly on N through the union bound, so fix K after
	// sizing with a provisional K, then re-size).
	fmt.Printf("scenario: %.0f m field, Rs=%.0f m, V=%.1f m/s, t=%v, Pd=%.2f, M=%d\n",
		p.FieldSide, p.Rs, p.V, p.T, p.Pd, p.M)

	provisionalN := 120
	k, err := gbd.MinK(p.WithN(provisionalN), *fa, *horizon, *budget)
	if err != nil {
		return err
	}
	p = p.WithK(k)
	n, err := gbd.RequiredSensors(p, *targetP, *nMax, gbd.MSOptions{})
	if err != nil {
		return fmt.Errorf("sizing the fleet: %w", err)
	}
	// Re-check K at the sized fleet (more sensors emit more false alarms).
	k2, err := gbd.MinK(p.WithN(n), *fa, *horizon, *budget)
	if err != nil {
		return err
	}
	if k2 != k {
		p = p.WithK(k2)
		n, err = gbd.RequiredSensors(p, *targetP, *nMax, gbd.MSOptions{})
		if err != nil {
			return fmt.Errorf("re-sizing the fleet for K=%d: %w", k2, err)
		}
		k = k2
	}
	p = p.WithN(n)
	sess.SetParams(p)
	fmt.Printf("\nrule:  K = %d of M = %d (false-alarm budget %.2g over %d periods at Pf=%.0e)\n",
		k, p.M, *budget, *horizon, *fa)
	// Section 6, exactly: the union bound above over-counts overlapping
	// windows; the scan-statistic Markov chain gives the exact threshold.
	if kExact, kerr := gbd.MinKExact(p, *fa, *horizon, *budget); kerr == nil {
		fmt.Printf("       exact scan statistic: K >= %d suffices (union bound chose %d)\n", kExact, k)
	} else if !errors.Is(kerr, falsealarm.ErrIntractable) {
		return kerr
	}
	fmt.Printf("fleet: N = %d sensors (smallest meeting P[detect] >= %.2f)\n", n, *targetP)

	ana, err := gbd.Analyze(p, gbd.MSOptions{})
	if err != nil {
		return err
	}
	cmp, err := gbd.Compare(p, 4000, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("check: analysis %.4f | simulation %.4f (CI [%.4f, %.4f])\n",
		ana.DetectionProb, cmp.Simulation, cmp.CILo, cmp.CIHi)

	// 2. Latency profile.
	cdf, err := gbd.Latency(p, gbd.MSOptions{})
	if err != nil {
		return err
	}
	if med, ok := cdf.Quantile(ana.DetectionProb / 2); ok {
		fmt.Printf("delay: half of eventual detections decided by period %d of %d\n", med, p.M)
	}

	// 3. Coverage audit on a concrete deployment.
	rng := field.NewRand(*seed)
	sensors, err := field.Uniform(p.N, geom.Square(p.FieldSide), rng)
	if err != nil {
		return err
	}
	cell := p.FieldSide / 128
	covMap, err := gbd.NewCoverageMap(p, sensors, cell)
	if err != nil {
		return err
	}
	breach, err := covMap.MaximalBreach(p.Rs)
	if err != nil {
		return err
	}
	fmt.Printf("\ncoverage: %.1f%% covered, void %.1f%%; worst corridor stays %.0f m from every sensor (evadable instantaneously: %v)\n",
		100*covMap.Fraction(1), 100*covMap.VoidFraction(), breach.Distance, breach.Undetectable)

	// 4. Communication audit.
	base := netsim.CenterNode(sensors, geom.Square(p.FieldSide))
	net, err := netsim.New(sensors, *commRange, geom.Square(p.FieldSide))
	if err != nil {
		return err
	}
	stats, err := net.Delivery(base, *perHop, p.T)
	if err != nil {
		return err
	}
	fmt.Printf("comms:    %d components; %d/%d reachable; max %d hops; %d deliver within one period\n",
		net.Components(), stats.Reachable, stats.Nodes, stats.MaxHops, stats.WithinBudget)

	// 5. End-to-end confirmation.
	sys, err := gbd.SimulateSystem(gbd.SystemConfig{
		Params: p, CommRange: *commRange, PerHop: *perHop,
		FalseAlarmP: *fa, Gated: true, Trials: 1000, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("system:   end-to-end P[detect] = %.4f (delivered %.1f%% of reports, gated rule)\n",
		sys.DetectionProb, 100*sys.DeliveredFrac)

	// 6. Sensitivities.
	sens, err := gbd.Sensitivities(p, gbd.MSOptions{})
	if err != nil {
		return err
	}
	fmt.Println("\nlevers (elasticity of P[detect]):")
	for _, s := range sens {
		fmt.Printf("  %-10s %+.3f\n", s.Param, s.Elasticity)
	}
	return nil
}

// placeCmd is the -place mode: single placement or the registry sweep.
type placeCmd struct {
	p          gbd.Params
	fa, budget float64
	horizon    int
	placeN     int
	gridSpec   string
	classSpec  string
	trials     int
	seed       int64
	rng        gbd.RNGScheme
	minGain    float64
	outPath    string
	workers    int
	quick      bool
	ckptPath   string
	resume     bool
}

// parseGrid reads a COLSxROWS spec like "32x32".
func parseGrid(spec string) (cols, rows int, err error) {
	c, r, ok := strings.Cut(spec, "x")
	if !ok {
		return 0, 0, fmt.Errorf("grid %q must be COLSxROWS", spec)
	}
	cols, err = strconv.Atoi(c)
	if err == nil {
		rows, err = strconv.Atoi(r)
	}
	if err != nil || cols < 1 || rows < 1 {
		return 0, 0, fmt.Errorf("grid %q must be COLSxROWS with positive integers", spec)
	}
	return cols, rows, nil
}

// parseClasses reads a heterogeneous fleet spec like "80:1000:0.9,40:2000:0.7".
func parseClasses(spec string) ([]gbd.PlacementClass, error) {
	var classes []gbd.PlacementClass
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("class %q must be count:rs:pd", part)
		}
		count, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("class %q count: %v", part, err)
		}
		rs, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("class %q rs: %v", part, err)
		}
		pd, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("class %q pd: %v", part, err)
		}
		classes = append(classes, gbd.PlacementClass{Count: count, Rs: rs, Pd: pd})
	}
	return classes, nil
}

// runOnce solves one placement problem and prints the layout summary.
// The placed probability is printed at full precision (%.15g) — the CI
// smoke job bit-checks it against a golden value.
func (c placeCmd) runOnce(ctx context.Context, sess *obs.Session) error {
	cols, rows, err := parseGrid(c.gridSpec)
	if err != nil {
		return err
	}
	var classes []gbd.PlacementClass
	total := c.placeN
	if c.classSpec != "" {
		if classes, err = parseClasses(c.classSpec); err != nil {
			return err
		}
		total = 0
		for _, cl := range classes {
			total += cl.Count
		}
	}
	// Size the report threshold for the placed fleet before optimizing:
	// the rule is an input to the objective.
	p := c.p.WithN(total)
	k, err := gbd.MinK(p, c.fa, c.horizon, c.budget)
	if err != nil {
		return err
	}
	p = p.WithK(k)
	sess.SetParams(p)

	cfg := gbd.PlacementConfig{
		Base:     p,
		Classes:  classes,
		GridCols: cols, GridRows: rows,
		Trials:      c.trials,
		Seed:        c.seed,
		RNG:         c.rng,
		Workers:     c.workers,
		FalseAlarmP: c.fa, FAHorizon: c.horizon, FABudget: c.budget,
	}
	res, err := gbd.PlaceCtx(ctx, cfg)
	if err != nil {
		return err
	}

	fmt.Printf("scenario: %.0f m field, Rs=%.0f m, V=%.1f m/s, t=%v, Pd=%.2f, M=%d\n",
		p.FieldSide, p.Rs, p.V, p.T, p.Pd, p.M)
	fmt.Printf("rule:  K = %d of M = %d (false-alarm budget %.2g over %d periods at Pf=%.0e)\n",
		k, p.M, c.budget, c.horizon, c.fa)
	if res.KMinExact > 0 {
		fmt.Printf("       exact scan statistic: K >= %d suffices (union bound chose %d)\n", res.KMinExact, res.KMin)
	}
	fmt.Printf("grid:  %dx%d candidate cells, %d sensors placed, %d trials\n",
		cols, rows, len(res.Sensors), res.Trials)
	cmp := res.VsUniform
	fmt.Printf("\nplaced P[detect] = %.15g (CI [%.4f, %.4f])\n", cmp.PlacedProb, cmp.PlacedCI.Lo, cmp.PlacedCI.Hi)
	fmt.Printf("uniform P[detect] = %.4f simulated, %.4f analytical\n", cmp.UniformProb, cmp.UniformAnalysis)
	fmt.Printf("gain: %+.4f absolute", cmp.AbsGain)
	if cmp.UniformProb > 0 {
		fmt.Printf(" (%+.1f%% relative)", 100*cmp.RelGain)
	}
	fmt.Println()
	fmt.Printf("lazy queue: %d gain evaluations, %d skipped\n", res.Evals, res.LazyHits)

	if c.outPath != "" {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(c.outPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("layout written to %s\n", c.outPath)
	}
	if cmp.AbsGain < c.minGain {
		return fmt.Errorf("placed layout gains %+.4f over uniform, below the -min-gain %g gate", cmp.AbsGain, c.minGain)
	}
	return nil
}

// placeSweepParams is the sweep checkpoint identity: the knobs that
// change sweep results.
type placeSweepParams struct {
	Trials int
	Quick  bool
	RNG    string `json:",omitempty"`
}

// runSweep runs the "placement" experiment from the registry: the budget
// sweep with per-point checkpointing, resumable across runs.
func (c placeCmd) runSweep(ctx context.Context, sess *obs.Session) (err error) {
	opt := experiments.Options{
		Trials:       c.trials,
		Seed:         c.seed,
		Quick:        c.quick,
		RNG:          c.rng,
		SweepWorkers: c.workers,
		Ctx:          ctx,
		OnPointError: func(point string, attempt int, perr error) {
			sess.SetFailedPoint(point)
			fmt.Fprintf(os.Stderr, "point %s attempt %d failed: %v\n", point, attempt+1, perr)
		},
	}
	if c.resume && c.ckptPath == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	if c.ckptPath != "" {
		rngName := ""
		if c.rng != gbd.SchemeLegacy {
			rngName = c.rng.String()
		}
		fp, err := checkpoint.Fingerprint("gbd-design-place",
			placeSweepParams{Trials: c.trials, Quick: c.quick, RNG: rngName}, c.seed)
		if err != nil {
			return err
		}
		var store *checkpoint.Store
		if c.resume {
			store, err = checkpoint.Resume(c.ckptPath, fp)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "resuming: %d completed points restored from %s\n", store.Len(), c.ckptPath)
		} else {
			store, err = checkpoint.Create(c.ckptPath, fp)
			if err != nil {
				return err
			}
		}
		opt.Checkpoint = store
		defer func() {
			if ferr := store.Flush(); err == nil {
				err = ferr
			}
		}()
	}
	tbl, err := experiments.RunOne("placement", opt)
	if err != nil {
		return err
	}
	fmt.Print(tbl.Render())
	return nil
}
