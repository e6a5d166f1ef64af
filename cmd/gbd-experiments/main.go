// Command gbd-experiments regenerates the paper's tables and figures (see
// DESIGN.md for the experiment index) and prints them as text or CSV.
//
// Long campaigns are resilient: Ctrl-C stops the run cleanly after the
// in-flight sweep points, -checkpoint records every completed point, and
// -resume picks an interrupted campaign back up, re-executing only the
// points that never finished. The resumed output is byte-identical to an
// uninterrupted run's.
//
// Usage:
//
//	gbd-experiments [flags]
//
// Examples:
//
//	gbd-experiments                      # run everything at paper scale
//	gbd-experiments -exp fig9a -quick    # one experiment, reduced sweep
//	gbd-experiments -csv -out results/   # write CSV files
//	gbd-experiments -checkpoint run.ckpt          # checkpoint as you go
//	gbd-experiments -checkpoint run.ckpt -resume  # continue after a kill
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/groupdetect/gbd/internal/checkpoint"
	"github.com/groupdetect/gbd/internal/experiments"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/obs"
)

// canonSchemeName is the scheme's checkpoint spelling: empty for legacy
// (keeps pre-scheme checkpoints resumable), the name otherwise.
func canonSchemeName(s field.RNGScheme) string {
	if s == field.SchemeLegacy {
		return ""
	}
	return s.String()
}

// expUsage is the -exp help, naming every registered experiment id.
func expUsage() string {
	runners := experiments.Runners()
	ids := make([]string, len(runners))
	for i, r := range runners {
		ids[i] = r.ID
	}
	return "experiment id (" + strings.Join(ids, ", ") + ") or all"
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gbd-experiments:", err)
		os.Exit(1)
	}
}

// campaignParams is the checkpoint identity: the options that change
// experiment *results*. Execution shape (sweep workers, retry policy, the
// -exp selection) is deliberately excluded — point keys are namespaced by
// experiment id, so one checkpoint file serves any -exp subset, and a
// resumed run may use different parallelism or retry settings.
type campaignParams struct {
	Trials int
	Quick  bool
	// RNG is the trial scheme's canonical spelling; omitempty keeps the
	// legacy encoding — and so checkpoints taken before the scheme flag
	// existed — valid. A resume across schemes fails the fingerprint
	// check instead of silently mixing two different random universes.
	RNG string `json:",omitempty"`
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("gbd-experiments", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "all", expUsage())
		trials  = fs.Int("trials", 0, "Monte Carlo trials per point (0 = paper's 10000)")
		seed    = fs.Int64("seed", 1, "random seed")
		quick   = fs.Bool("quick", false, "reduced sweeps and trial counts")
		rngName = fs.String("rng", "", "trial RNG scheme: legacy (default) or philox (counter-based, batched)")
		csv     = fs.Bool("csv", false, "emit CSV instead of aligned text")
		plots   = fs.Bool("plot", false, "append ASCII charts for plottable experiments")
		outDir  = fs.String("out", "", "write per-experiment files into this directory instead of stdout")
		workers = fs.Int("sweep-workers", 0, "concurrent sweep points per experiment (0 = all cores); output is identical at any setting")

		ckptPath     = fs.String("checkpoint", "", "record completed sweep points in this file for crash/interrupt recovery")
		resume       = fs.Bool("resume", false, "resume from an existing -checkpoint file (refuses stale checkpoints)")
		retryBackoff = fs.Duration("retry-backoff", 100*time.Millisecond, "base backoff between point retries")
		pointTimeout = fs.Duration("point-timeout", 0, "deadline per sweep-point attempt (0 = none)")
	)
	// The sweep fault policy answers to both spellings of the shared
	// vocabulary: -retries (native here) and -point-retries (gbd-faults,
	// gbd-server) set the same value.
	var retries int
	fs.IntVar(&retries, "retries", 0, "re-attempts per failed sweep point (jittered exponential backoff; alias: -point-retries)")
	fs.IntVar(&retries, "point-retries", 0, "alias for -retries")
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if retries < 0 {
		return fmt.Errorf("retries = %d must be >= 0", retries)
	}
	scheme, err := field.ParseRNGScheme(*rngName)
	if err != nil {
		return err
	}
	sess, err := obsFlags.Start("gbd-experiments", args)
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
	ctx, cancel := sess.SignalContext(context.Background())
	defer cancel()

	opt := experiments.Options{
		Trials:       *trials,
		Seed:         *seed,
		Quick:        *quick,
		RNG:          scheme,
		SweepWorkers: *workers,
		Ctx:          ctx,
		Retries:      retries,
		RetryBackoff: *retryBackoff,
		PointTimeout: *pointTimeout,
		OnPointError: func(point string, attempt int, perr error) {
			sess.SetFailedPoint(point)
			fmt.Fprintf(os.Stderr, "point %s attempt %d failed: %v\n", point, attempt+1, perr)
		},
	}
	sess.SetParams(opt)
	sess.SetSeed(*seed)

	if *resume && *ckptPath == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	if *ckptPath != "" {
		fp, err := checkpoint.Fingerprint("gbd-experiments",
			campaignParams{Trials: *trials, Quick: *quick, RNG: canonSchemeName(scheme)}, *seed)
		if err != nil {
			return err
		}
		var store *checkpoint.Store
		if *resume {
			store, err = checkpoint.Resume(*ckptPath, fp)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "resuming: %d completed points restored from %s\n", store.Len(), *ckptPath)
		} else {
			store, err = checkpoint.Create(*ckptPath, fp)
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

	var tables []*experiments.Table
	if *exp == "all" {
		start := time.Now()
		all, aerr := experiments.All(opt)
		tables = all // render the tables completed before any failure
		if aerr == nil {
			fmt.Fprintf(os.Stderr, "ran %d experiments in %v\n", len(all), time.Since(start).Round(time.Millisecond))
		}
		err = aerr
	} else {
		var tbl *experiments.Table
		tbl, err = experiments.RunOne(*exp, opt)
		if err == nil {
			tables = []*experiments.Table{tbl}
		}
	}
	if werr := writeTables(tables, *csv, *plots, *outDir); err == nil {
		err = werr
	}
	return err
}

// writeTables renders each table to stdout or into outDir. On a failed run
// it still emits the tables that completed, so a degraded campaign yields
// partial results rather than nothing.
func writeTables(tables []*experiments.Table, csv, plots bool, outDir string) error {
	for _, tbl := range tables {
		content := tbl.Render()
		ext := ".txt"
		if csv {
			content = tbl.CSV()
			ext = ".csv"
		}
		if plots {
			if chart, ok := experiments.Chart(tbl); ok {
				content += "\n" + chart
			}
		}
		if outDir == "" {
			fmt.Println(content)
			continue
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(outDir, tbl.ID+ext)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return nil
}
