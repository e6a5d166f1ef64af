package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/groupdetect/gbd/internal/obs"
)

// coldPerSecond sizes the analyze_cold input stream per measured second,
// well above the rate this workload reaches on two cores.
const coldPerSecond = 2000

type coldEnv struct {
	reqs   []scenario
	reused []bool
	bodies [][]byte
	reps   *replicas
	cl     *client
}

func (e *coldEnv) close() { e.cl.close(); e.reps.close() }

// runCold is the analyze_cold workload: nproc closed-loop clients against
// one replica, every body a distinct cache key, so every request is a
// miss and detect does most of the work.
func runCold(cfg runConfig) *report {
	rep := newReport()
	var rec *recorder
	var timed map[string]float64
	if cfg.trace {
		timed, _ = timedChild(cfg, rep)
		rec = newRecorder()
		cfg.seconds = max(1, cfg.seconds/2)
	}
	env, err := measureSetup(rep, cfg.trace, func() (*coldEnv, error) {
		reqs, reused := coldInputs(cfg.seed, coldPerSecond*cfg.seconds)
		bodies := make([][]byte, len(reqs))
		for i, s := range reqs {
			bodies[i] = s.body()
		}
		reps, err := startReplicas(1, rec)
		if err != nil {
			return nil, err
		}
		return &coldEnv{reqs: reqs, reused: reused, bodies: bodies, reps: reps, cl: newClient(nproc())}, nil
	}, (*coldEnv).close)
	if err != nil {
		rep.op(err, "set-up")
		return rep
	}
	defer env.close()

	url := env.reps.urls[0]
	c0, a0, g0 := readServeCounters(), allocObjects(), readGC()
	var heap *heapSampler
	if rec != nil {
		heap = startHeapSampler(10 * time.Millisecond)
	}
	xcaches, resps := make([]string, len(env.reqs)), make([][]byte, len(env.reqs))
	res, loopErrs, wall := closedLoop(nproc(), len(env.reqs), cfg.dur(), func(_, i int, t0 time.Time) (result, error) {
		var cs int64
		if rec != nil {
			cs = rec.now()
		}
		start := time.Since(t0)
		st, xc, body, err := env.cl.post(url+env.reqs[i].path(), env.bodies[i], int64(i+1))
		r := result{start: start, end: time.Since(t0), status: int32(st), forwarded: outcome(xc) == "forward", bytes: int32(len(body))}
		xcaches[i], resps[i] = xc, body
		if rec != nil {
			rec.add(span{ID: int64(i + 1), Name: "client", Start: cs, End: rec.now()})
		}
		return r, err
	})
	a1, g1, c1 := allocObjects(), readGC(), readServeCounters()
	summarizeLoop(rep, res, wall, blockSize)
	if len(res) == len(env.reqs) {
		rep.linef("note: the input stream ran out before --seconds elapsed")
	}
	served := env.reqs[:len(res)]
	coldInputLines(rep, served, env.reused[:len(res)])

	var probs []float64
	var pmfLens []int
	if rec == nil {
		// Direct evaluations, after the timed phase so they cannot warm
		// detect's caches for it.
		probs, pmfLens = make([]float64, len(res)), make([]int, len(res))
		var next atomic.Int64
		var wg sync.WaitGroup
		errs := make([]error, len(res))
		for w := 0; w < nproc(); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(res); i = int(next.Add(1) - 1) {
					probs[i], pmfLens[i], errs[i] = reference(served[i])
				}
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				rep.opf(err, "direct evaluation %d", i)
			}
		}
	} else {
		procLayer(rep, g0, g1, heap.peakMB())
		serveLayer(rep, rec, res, c0, c1, a1-a0)
		probs, pmfLens, err = replayDetect(cfg, rep, rec, res, served)
		rep.op(err, "detect replay")
		if err != nil {
			return rep
		}
		if timed != nil {
			rep.layer["trace.overhead_frac"] = 1 - rep.e2e["ops_per_s"]/timed["ops_per_s"]
		}
	}
	var lens []float64
	for i, r := range res {
		err := loopErrs[i]
		if err == nil {
			err = checkCold(int(r.status), xcaches[i], resps[i], probs[i])
		}
		rep.opf(err, "request %d %s", i, env.bodies[i])
		if pmfLens[i] > 0 {
			lens = append(lens, float64(pmfLens[i]))
		}
	}
	if len(lens) > 0 {
		rep.linef("input: pmf_len p50=%.0f p90=%.0f max=%.0f over %d analyze calls",
			quantile(lens, 0.5), quantile(lens, 0.9), quantile(lens, 1), len(lens))
	}
	st, _, body, err := env.cl.post(url+"/v1/analyze", []byte(`{"scenario":{}}`), 0)
	if err == nil {
		err = checkDefault(st, body)
	}
	rep.op(err, "default scenario")
	if rec != nil {
		if err := rec.write(cfg.tracePath(".jsonl"), hostFingerprint()); err != nil {
			rep.op(err, "write spans")
		}
	}
	return rep
}

// coldInputLines reports the served stream's input properties.
func coldInputLines(rep *report, served []scenario, reused []bool) {
	var nReused int
	count := map[string]int{}
	var ms []float64
	for i, s := range served {
		if reused[i] {
			nReused++
		}
		count[s.Endpoint]++
		ms = append(ms, float64(s.M))
	}
	n := float64(max(len(served), 1))
	rep.linef("input: stage_key_reuse_share=%.3f (requests reusing a recent (N, V, Pd) at a new M)", float64(nReused)/n)
	rep.linef("input: mix analyze=%d nodes=%d latency=%d", count["analyze"], count["nodes"], count["latency"])
	rep.linef("input: M p10=%.0f p50=%.0f p90=%.0f max=%.0f", quantile(ms, 0.1), quantile(ms, 0.5), quantile(ms, 0.9), quantile(ms, 1))
}

// replayCall is one detect call of the replay.
type replayCall struct {
	Start, End int64
	Bits       uint64
	PMFLen     int
}

// replayOut is the replay process's answer.
type replayOut struct {
	Calls         []replayCall
	Lookups, Hits uint64 // detect stage-cache traffic
}

// replayDetect re-runs the served requests' detect calls, in the order the
// clients sent them, in a fresh process: detect's stage caches are
// process-global, so replaying here would find them warmed by the served
// run and under-report detect time. It derives the detect per-layer
// metrics and returns each request's direct evaluation and PMF length,
// indexed like res.
func replayDetect(cfg runConfig, rep *report, rec *recorder, res []result, served []scenario) (probs []float64, pmfLens []int, err error) {
	clientStart := map[int64]int64{}
	for _, s := range rec.named("client") {
		clientStart[s.ID] = s.Start
	}
	order := make([]int, len(res))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return clientStart[int64(order[a]+1)] < clientStart[int64(order[b]+1)]
	})
	seq := make([]scenario, len(order))
	for j, i := range order {
		seq[j] = served[i]
	}
	path := cfg.tracePath("-replay.json")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, nil, err
	}
	data, err := json.Marshal(seq)
	if err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var stdout bytes.Buffer
	cmd := exec.Command(self, "--replay", path)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("replay process: %w", err)
	}
	var out replayOut
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return nil, nil, fmt.Errorf("replay output: %w", err)
	}
	if len(out.Calls) != len(seq) {
		return nil, nil, fmt.Errorf("replay answered %d of %d calls", len(out.Calls), len(seq))
	}
	// Back to request order; record the calls as detect spans (on the
	// replay process's clock).
	probs, pmfLens = make([]float64, len(res)), make([]int, len(res))
	byEndpoint := map[string][]time.Duration{}
	var detectTotal time.Duration
	var entries, analyses float64
	for j, i := range order {
		c := out.Calls[j]
		probs[i], pmfLens[i] = math.Float64frombits(c.Bits), c.PMFLen
		d := time.Duration(c.End - c.Start)
		detectTotal += d
		byEndpoint[seq[j].Endpoint] = append(byEndpoint[seq[j].Endpoint], d)
		if seq[j].Endpoint == "analyze" {
			entries += float64(c.PMFLen)
			analyses++
		}
		rec.add(span{Parent: int64(i + 1), Name: "detect." + seq[j].Endpoint, Start: c.Start, End: c.End, Count: int64(c.PMFLen)})
	}
	var missTotal time.Duration
	for _, s := range rec.named("serve") {
		if s.Outcome == "miss" && !s.Peer {
			missTotal += s.dur()
		}
	}
	us := func(ds []time.Duration, q float64) float64 { return quantile(durationsMs(ds), q) * 1e3 }
	l := rep.layer
	l["detect.analyze_us_p50"] = us(byEndpoint["analyze"], 0.5)
	l["detect.analyze_us_p99"] = us(byEndpoint["analyze"], 0.99)
	l["detect.nodes_us_p50"] = us(byEndpoint["nodes"], 0.5)
	l["detect.latency_us_p50"] = us(byEndpoint["latency"], 0.5)
	l["detect.pmf_entries_per_call"] = entries / math.Max(analyses, 1)
	if missTotal > 0 {
		l["detect.share_of_miss"] = detectTotal.Seconds() / missTotal.Seconds()
	}
	if out.Lookups > 0 {
		l["detect.stage_cache_hit_ratio"] = float64(out.Hits) / float64(out.Lookups)
	}
	rep.linef("trace: detect replay of %d calls: %.3f s over %.3f s served miss handler time, share_of_miss=%.3f",
		len(seq), detectTotal.Seconds(), missTotal.Seconds(), l["detect.share_of_miss"])
	return probs, pmfLens, nil
}

// detectCaches are detect's stage memo maps, counted together as its
// stage cache.
var detectCaches = []string{"pmfs", "joints", "smallheads", "smalljoints"}

// runReplay is the replay process: it evaluates each listed scenario
// directly, timing every call, and prints a replayOut.
func runReplay(path string, stdout io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	var seq []scenario
	if err := json.Unmarshal(data, &seq); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", path, err)
		return 1
	}
	counter := func(name string) uint64 {
		var v uint64
		for _, c := range detectCaches {
			v += obs.Default.Counter("detect.cache." + c + "." + name).Value()
		}
		return v
	}
	l0, h0 := counter("lookups"), counter("hits")
	t0 := time.Now()
	out := replayOut{Calls: make([]replayCall, len(seq))}
	for j, s := range seq {
		start := time.Since(t0)
		prob, pmfLen, err := reference(s)
		end := time.Since(t0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: replay call %d: %v\n", j, err)
			return 1
		}
		out.Calls[j] = replayCall{Start: int64(start), End: int64(end), Bits: math.Float64bits(prob), PMFLen: pmfLen}
	}
	out.Lookups, out.Hits = counter("lookups")-l0, counter("hits")-h0
	if err := json.NewEncoder(stdout).Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}
