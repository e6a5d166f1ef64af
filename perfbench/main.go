// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload in-process against the public APIs, checks every output, and
// prints its metrics; the last line of standard output is one JSON
// object. See README.md for the workloads, the metrics and how to run it.
//
//	perfbench --workload analyze_cold --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// metricSpec names one reported metric. The lists below must match
// BENCHMARK.json (the tests check it).
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is reported by every untraced run, on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ok_frac", "ratio", "higher"},
	{"max_rss_mb", "MiB", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p99_ms", "ms", "lower"},
	{"wall_s", "s", "lower"},
}

// perLayer is reported by every traced run; a layer a workload does not
// exercise reports 0.
var perLayer = []metricSpec{
	{"serve.hit.handler_us_p50", "us", "lower"},
	{"serve.miss.handler_us_p50", "us", "lower"},
	{"serve.miss.handler_us_p99", "us", "lower"},
	{"serve.forward.handler_us_p50", "us", "lower"},
	{"serve.transport_us_p50", "us", "lower"},
	{"serve.hit_ratio", "ratio", "higher"},
	{"serve.shed_count", "count", "lower"},
	{"serve.allocs_per_op", "count", "lower"},
	{"serve.resp_bytes_per_op", "bytes", "lower"},
	{"peer.forward_share", "ratio", "lower"},
	{"peer.forward_overhead_us_p50", "us", "lower"},
	{"detect.analyze_us_p50", "us", "lower"},
	{"detect.analyze_us_p99", "us", "lower"},
	{"detect.nodes_us_p50", "us", "lower"},
	{"detect.latency_us_p50", "us", "lower"},
	{"detect.pmf_entries_per_call", "count", "lower"},
	{"detect.stage_cache_hit_ratio", "ratio", "higher"},
	{"detect.share_of_miss", "ratio", "lower"},
	{"sim.plain.trial_us", "us", "lower"},
	{"sim.legacy.trial_us", "us", "lower"},
	{"sim.faulty.trial_us", "us", "lower"},
	{"sim.lossy.trial_us", "us", "lower"},
	{"sim.plain.trials_per_s", "1/s", "higher"},
	{"sim.legacy.trials_per_s", "1/s", "higher"},
	{"sim.faulty.trials_per_s", "1/s", "higher"},
	{"sim.lossy.trials_per_s", "1/s", "higher"},
	{"sim.plain.allocs_per_trial", "count", "lower"},
	{"sim.legacy.allocs_per_trial", "count", "lower"},
	{"sim.faulty.allocs_per_trial", "count", "lower"},
	{"sim.lossy.allocs_per_trial", "count", "lower"},
	{"sim.plain.cpu_util", "ratio", "higher"},
	{"sim.legacy.cpu_util", "ratio", "higher"},
	{"sim.faulty.cpu_util", "ratio", "higher"},
	{"sim.lossy.cpu_util", "ratio", "higher"},
	{"placement.solve_s", "s", "lower"},
	{"placement.evals", "count", "lower"},
	{"placement.lazy_hit_ratio", "ratio", "higher"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.gc_pause_ms_total", "ms", "lower"},
	{"proc.heap_peak_mb", "MiB", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

var workloads = map[string]func(runConfig) *report{
	"analyze_cold": runCold,
	"serve_hot":    runHot,
	"campaign":     runCampaign,
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func (c runConfig) dur() time.Duration { return time.Duration(c.seconds) * time.Second }

// traceDir holds span files and replay inputs, inside the build
// directory the wrapper script already keeps out of version control.
const traceDir = ".bench_build/trace"

func (c runConfig) tracePath(suffix string) string {
	return filepath.Join(traceDir, fmt.Sprintf("%s-seed%d%s", c.workload, c.seed, suffix))
}

// report collects one run's outcome.
type report struct {
	attempted, failed int
	e2e, layer        map[string]float64
	lines             []string
	failures          []string
	digest            string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) linef(format string, a ...any) { r.lines = append(r.lines, fmt.Sprintf(format, a...)) }

// op counts one attempted operation or check, failed when err != nil.
func (r *report) op(err error, what string) { r.opf(err, "%s", what) }

// opf is op with the operation's description formatted only on failure.
func (r *report) opf(err error, format string, a ...any) {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, a...)+": "+err.Error())
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := runConfig{}
	fs.StringVar(&cfg.workload, "workload", "", "workload: analyze_cold, serve_hot or campaign")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.IntVar(&cfg.seconds, "seconds", 20, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	replay := fs.String("replay", "", "internal: replay the detect calls listed in this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *replay != "" {
		return runReplay(*replay, stdout)
	}
	body, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload analyze_cold|serve_hot|campaign, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	cfg.trace = *traceFlag == 1
	host := hostFingerprint()
	fmt.Fprintf(stdout, "host: %s\n", host)
	fmt.Fprintf(stdout, "run: workload=%s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, *traceFlag)
	rep := body(cfg)
	rep.e2e["max_rss_mb"] = maxRSSMB()
	if rep.attempted > 0 {
		rep.e2e["ok_frac"] = 1 - float64(rep.failed)/float64(rep.attempted)
	}
	return rep.print(stdout, cfg)
}

// print writes the human-readable lines and the final JSON line, and
// returns the exit code: nonzero when any check failed.
func (r *report) print(w io.Writer, cfg runConfig) int {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	failedFrac := 1.0
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	if !cfg.trace {
		fmt.Fprintf(w, "metric failed_frac = %.6f ratio (%d of %d operations and checks)\n", failedFrac, r.failed, r.attempted)
		fmt.Fprintf(w, "metric max_rss_mb = %.2f MiB\n", r.e2e["max_rss_mb"])
	}
	for i, f := range r.failures {
		if i == 20 {
			fmt.Fprintf(w, "FAIL: ... %d more\n", len(r.failures)-i)
			break
		}
		fmt.Fprintf(w, "FAIL: %s\n", f)
	}
	if r.digest != "" {
		fmt.Fprintf(w, "digest: %s\n", r.digest)
	}
	specs, vals := endToEnd, r.e2e
	if cfg.trace {
		specs, vals = perLayer, r.layer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct: r.failed == 0 && r.attempted > 0, Attempted: max(r.attempted, 1),
		Failed: r.failed, Metrics: map[string]value{},
	}
	if r.attempted == 0 {
		out.Failed = 1
	}
	for _, s := range specs {
		v := vals[s.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[s.Name] = value{v, s.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// timedChild runs the same workload untraced in a fresh process for half
// the run, so the traced run can report the tracing overhead and compare
// results. It returns the child's end-to-end metrics and result digest.
func timedChild(cfg runConfig, rep *report) (map[string]float64, string) {
	self, err := os.Executable()
	if err != nil {
		rep.op(err, "timed run")
		return nil, ""
	}
	cmd := exec.Command(self, "--workload", cfg.workload, "--seed", fmt.Sprint(cfg.seed),
		"--seconds", fmt.Sprint(max(1, cfg.seconds/2)), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	var last, digest string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if d, ok := strings.CutPrefix(line, "digest: "); ok {
			digest = d
		}
		last = line
	}
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil || runErr != nil || !res.Correct {
		rep.op(fmt.Errorf("exit %v, correct=%v: %s", runErr, res.Correct, out.String()), "timed run")
		return nil, ""
	}
	rep.op(nil, "timed run")
	m := map[string]float64{}
	for k, v := range res.Metrics {
		m[k] = v.Value
	}
	return m, digest
}

// procLayer records the Go runtime's per-layer metrics for a phase.
func procLayer(rep *report, g0, g1 gcState, heapPeakMB float64) {
	rep.layer["proc.gc_cycles"] = float64(g1.cycles - g0.cycles)
	rep.layer["proc.gc_pause_ms_total"] = float64(g1.pauseNs-g0.pauseNs) / 1e6
	rep.layer["proc.heap_peak_mb"] = heapPeakMB
}
