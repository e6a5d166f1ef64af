// Benchmarks, one per reproduced table/figure plus the ablations from
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// E1 (Figure 8), E2-E4 (Figure 9a-c), E5 (timing claim), E6 (extension),
// E7 (k lower bound), A1 (evaluator ablation), A3 (communication check).
package gbd_test

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"context"
	"path/filepath"

	gbd "github.com/groupdetect/gbd"
	"github.com/groupdetect/gbd/internal/coverage"
	"github.com/groupdetect/gbd/internal/detect"
	"github.com/groupdetect/gbd/internal/fabric"
	"github.com/groupdetect/gbd/internal/fabric/chaos"
	"github.com/groupdetect/gbd/internal/falsealarm"
	"github.com/groupdetect/gbd/internal/faults"
	"github.com/groupdetect/gbd/internal/field"
	"github.com/groupdetect/gbd/internal/geom"
	"github.com/groupdetect/gbd/internal/netsim"
	"github.com/groupdetect/gbd/internal/serve"
	"github.com/groupdetect/gbd/internal/sim"
	"github.com/groupdetect/gbd/internal/target"
	"github.com/groupdetect/gbd/internal/track"
)

// BenchmarkFig8RequiredAccuracy regenerates the Figure 8 planning sweep:
// minimal g, gh and G for 99% accuracy from N = 60 to 260.
func BenchmarkFig8RequiredAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for n := 60; n <= 260; n += 20 {
			p := detect.Defaults().WithN(n)
			if _, err := detect.RequiredBodyG(p, 0.99); err != nil {
				b.Fatal(err)
			}
			if _, err := detect.RequiredHeadG(p, 0.99); err != nil {
				b.Fatal(err)
			}
			if _, err := detect.RequiredSG(p, 0.99); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchFig9Analysis sweeps both speeds across the Figure 9 node counts.
func benchFig9Analysis(b *testing.B, normalize bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for _, v := range []float64{4, 10} {
			for n := 60; n <= 240; n += 30 {
				p := detect.Defaults().WithN(n).WithV(v)
				_, err := detect.MSApproach(p, detect.MSOptions{Gh: 3, G: 3, NoNormalize: !normalize})
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkFig9aAnalysis regenerates the Figure 9(a) analysis curves
// (normalized M-S-approach, V = 4 and 10, N = 60..240).
func BenchmarkFig9aAnalysis(b *testing.B) { benchFig9Analysis(b, true) }

// BenchmarkFig9bAnalysisRaw regenerates the Figure 9(b) curves
// (un-normalized analysis).
func BenchmarkFig9bAnalysisRaw(b *testing.B) { benchFig9Analysis(b, false) }

// BenchmarkFig9aSimulation measures the Monte Carlo validation cost per
// 100 trials of the ONR default scenario (the paper runs 10000 per point).
func BenchmarkFig9aSimulation(b *testing.B) {
	cfg := sim.Config{Params: detect.Defaults(), Trials: 100, Workers: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9cSimulationRandomWalk measures the Figure 9(c) random-walk
// simulation per 100 trials.
func BenchmarkFig9cSimulationRandomWalk(b *testing.B) {
	p := detect.Defaults()
	cfg := sim.Config{
		Params:  p,
		Model:   target.RandomWalk{Step: p.Vt(), MaxTurn: math.Pi / 4},
		Trials:  100,
		Workers: 1,
	}
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulationSingleTrial isolates the per-trial cost (deployment,
// spatial index, 20 sensing periods) under the counter-based RNG scheme —
// the headline number the PR-7 bench gate tracks. The legacy scheme's
// per-trial reseed floor is measured separately below.
func BenchmarkSimulationSingleTrial(b *testing.B) {
	cfg := sim.Config{Params: detect.Defaults(), Trials: 1, Workers: 1, RNG: field.SchemePhilox}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulationSingleTrialLegacy is the same trial under the default
// legacy scheme, which runs the scalar kernel and reseeds the lagged-
// Fibonacci source per trial (internal/field's BenchmarkLegacyReseed
// measures that reseed alone); kept as the scheme contrast and to catch
// regressions in the compatibility path.
func BenchmarkSimulationSingleTrialLegacy(b *testing.B) {
	cfg := sim.Config{Params: detect.Defaults(), Trials: 1, Workers: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// E5 / Section 3.4.5: execution-time comparison. The paper reports the
// S-approach needs days while the M-S-approach finishes within a minute.

// BenchmarkMSApproachConvolution measures the default (convolution)
// evaluator at the planned 99%-accuracy truncation, N = 240.
func BenchmarkMSApproachConvolution(b *testing.B) {
	p := detect.Defaults().WithN(240)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := detect.MSApproach(p, detect.MSOptions{Gh: 6, G: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMSApproachMatrix measures the paper-faithful Eq. (12) matrix
// evaluator (ablation A1's other arm).
func BenchmarkMSApproachMatrix(b *testing.B) {
	p := detect.Defaults().WithN(240)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := detect.MSApproach(p, detect.MSOptions{Gh: 6, G: 3, Evaluator: detect.EvaluatorMatrix}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSApproachFast measures our polynomial S-approach reformulation
// at the full required G = 13 for N = 240.
func BenchmarkSApproachFast(b *testing.B) {
	p := detect.Defaults().WithN(240)
	for i := 0; i < b.N; i++ {
		if _, err := detect.SApproach(p, detect.SOptions{G: 13}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSApproachLiteralG3 and G4 measure the paper's Algorithm 1
// enumeration; its O(ms^2G) growth extrapolates to days at G = 13,
// reproducing the paper's infeasibility claim (see EXPERIMENTS.md).
func BenchmarkSApproachLiteralG3(b *testing.B) {
	p := detect.Defaults().WithN(240)
	for i := 0; i < b.N; i++ {
		if _, err := detect.SApproach(p, detect.SOptions{G: 3, Literal: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSApproachLiteralG4(b *testing.B) {
	p := detect.Defaults().WithN(240)
	for i := 0; i < b.N; i++ {
		if _, err := detect.SApproach(p, detect.SOptions{G: 4, Literal: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSApproachLiteralG5(b *testing.B) {
	if testing.Short() {
		b.Skip("literal G=5 enumeration is slow")
	}
	p := detect.Defaults().WithN(240)
	for i := 0; i < b.N; i++ {
		if _, err := detect.SApproach(p, detect.SOptions{G: 5, Literal: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionH measures the Section-4 distinct-nodes extension (E6).
func BenchmarkExtensionH(b *testing.B) {
	p := detect.Defaults()
	for i := 0; i < b.N; i++ {
		for h := 1; h <= 4; h++ {
			if _, err := detect.MSApproachNodes(p, h, detect.MSOptions{Gh: 3, G: 3}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkKMin measures the exact k lower-bound computation over a 1-day
// horizon (E7).
func BenchmarkKMin(b *testing.B) {
	m := falsealarm.Model{N: 120, Pf: 1e-4, M: 20}
	for i := 0; i < b.N; i++ {
		if _, err := falsealarm.KMin(m, 1440, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommCheck measures the A3 communication verification: building
// the 240-node unit-disk graph and evaluating delivery to a central base.
func BenchmarkCommCheck(b *testing.B) {
	bounds := geom.Square(32000)
	pts, err := field.Uniform(240, bounds, field.NewRand(7))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := netsim.New(pts, 6000, bounds)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := net.Delivery(0, 10*time.Second, time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicAnalyze measures the end-to-end public API call a
// downstream user makes, including automatic accuracy planning.
func BenchmarkPublicAnalyze(b *testing.B) {
	p := gbd.Defaults()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gbd.Analyze(p, gbd.MSOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTApproachSmallMs measures the Section-3.2 Temporal approach on a
// tractable configuration; its state count (not time alone) is the story —
// see the tapproach experiment table.
func BenchmarkTApproachSmallMs(b *testing.B) {
	p := detect.Defaults().WithM(10) // ms = 4
	for i := 0; i < b.N; i++ {
		if _, err := detect.TApproach(p, detect.TOptions{Gh: 2, G: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLatencyCDF measures the analytical detection-latency profile
// (an M-S-approach sweep over window lengths).
func BenchmarkLatencyCDF(b *testing.B) {
	p := detect.Defaults()
	for i := 0; i < b.N; i++ {
		if _, err := detect.DetectionLatency(p, detect.MSOptions{Gh: 3, G: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMixedFleetAnalysis measures the heterogeneous-fleet analysis
// (two classes convolved).
func BenchmarkMixedFleetAnalysis(b *testing.B) {
	p := detect.Defaults()
	classes := []detect.SensorClass{
		{Count: 90, Rs: 800, Pd: 0.85},
		{Count: 15, Rs: 2500, Pd: 0.95},
	}
	for i := 0; i < b.N; i++ {
		if _, err := detect.MSApproachMixed(p, classes, detect.MSOptions{Gh: 4, G: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoverageMap measures building the ONR coverage grid (A4).
func BenchmarkCoverageMap(b *testing.B) {
	bounds := geom.Square(32000)
	pts, err := field.Uniform(240, bounds, field.NewRand(7))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coverage.NewMap(pts, 1000, bounds, 250); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaximalBreach measures the maximin-Dijkstra breach search.
func BenchmarkMaximalBreach(b *testing.B) {
	bounds := geom.Square(32000)
	pts, err := field.Uniform(240, bounds, field.NewRand(7))
	if err != nil {
		b.Fatal(err)
	}
	m, err := coverage.NewMap(pts, 1000, bounds, 250)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.MaximalBreach(1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrackGateDecide measures the kinematic gating of a noisy window
// (the base station's per-period work in the end-to-end system).
func BenchmarkTrackGateDecide(b *testing.B) {
	gate, err := track.NewGate(10, time.Minute, 1000)
	if err != nil {
		b.Fatal(err)
	}
	rng := field.NewRand(3)
	var reports []track.Report
	for i := 0; i < 60; i++ {
		reports = append(reports, track.Report{
			Sensor: i,
			Pos:    geom.Point{X: rng.Float64() * 32000, Y: rng.Float64() * 32000},
			Period: 1 + i%20,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := track.Decide(reports, 5, 20, gate, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndTrial measures one full-system trial: deployment,
// network build, sensing, delivery and the ungated base decision (A5).
func BenchmarkEndToEndTrial(b *testing.B) {
	cfg := sim.SystemConfig{
		Params:    detect.Defaults(),
		CommRange: 6000,
		PerHop:    10 * time.Second,
		Trials:    1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := sim.RunSystem(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLossyDelivery measures the per-report delivery classification hot
// path of the fault-injection subsystem: greedy routing plus per-hop
// Bernoulli retransmission over the ONR-scale network.
func BenchmarkLossyDelivery(b *testing.B) {
	bounds := geom.Square(32000)
	rng := field.NewRand(1)
	pts, err := field.Uniform(240, bounds, rng)
	if err != nil {
		b.Fatal(err)
	}
	net, err := netsim.New(pts, 6000, bounds)
	if err != nil {
		b.Fatal(err)
	}
	loss := netsim.LossModel{
		PerHopDelivery: 0.8,
		MaxRetries:     2,
		PerHop:         10 * time.Second,
		Backoff:        5 * time.Second,
		Budget:         time.Minute,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := net.Send(i%len(pts), 0, loss, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// servedAnalyze posts one /v1/analyze request and discards the body.
func servedAnalyze(url string) error {
	resp, err := http.Post(url+"/v1/analyze", "application/json",
		strings.NewReader(`{"scenario":{}}`))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// BenchmarkServedAnalyzeCold measures a full served analysis with caching
// disabled: HTTP round trip + canonicalization + admission + the
// M-S-approach compute, every iteration.
func BenchmarkServedAnalyzeCold(b *testing.B) {
	ts := httptest.NewServer(serve.New(serve.Config{CacheEntries: -1}).Handler())
	defer ts.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := servedAnalyze(ts.URL); err != nil {
			b.Fatal(err)
		}
	}
}

// replayBody is a resettable ReadCloser over fixed bytes, letting one
// http.Request be replayed without per-iteration allocation.
type replayBody struct {
	data []byte
	off  int
}

func (rb *replayBody) Read(p []byte) (int, error) {
	if rb.off >= len(rb.data) {
		return 0, io.EOF
	}
	n := copy(p, rb.data[rb.off:])
	rb.off += n
	return n, nil
}

func (rb *replayBody) Close() error { return nil }

// discardRW is the minimal ResponseWriter: headers land in one reused
// map, bodies are dropped, and the last status code is kept for checks.
type discardRW struct {
	h    http.Header
	code int
}

func (w *discardRW) Header() http.Header         { return w.h }
func (w *discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardRW) WriteHeader(code int)        { w.code = code }

// BenchmarkServedAnalyzeCached measures the server-side cache-hit path in
// isolation — handler dispatch, raw-body digest, LRU lookup, rendered
// bytes out — by driving the handler directly with a replayed request.
// The HTTP transport cost lives in the Cold and Concurrent benchmarks;
// this one is the near-zero-alloc number the PR-7 bench gate tracks.
func BenchmarkServedAnalyzeCached(b *testing.B) {
	h := serve.New(serve.Config{}).Handler()
	body := &replayBody{data: []byte(`{"scenario":{}}`)}
	req := httptest.NewRequest("POST", "/v1/analyze", body)
	w := &discardRW{h: make(http.Header)}
	// Twice: the first populates the canonical entry, the second the
	// raw-bytes alias.
	for i := 0; i < 2; i++ {
		body.off = 0
		h.ServeHTTP(w, req)
		if w.code != 0 && w.code != http.StatusOK {
			b.Fatalf("populate: status %d", w.code)
		}
	}
	if got := w.h.Get("X-Cache"); got != "hit" {
		b.Fatalf("populate did not reach the hit path: X-Cache %q", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.off = 0
		h.ServeHTTP(w, req)
	}
}

// BenchmarkServedAnalyzeConcurrent measures cached throughput under
// concurrent clients (RunParallel drives GOMAXPROCS goroutines).
func BenchmarkServedAnalyzeConcurrent(b *testing.B) {
	ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer ts.Close()
	if err := servedAnalyze(ts.URL); err != nil { // populate
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := servedAnalyze(ts.URL); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkFaultyTrial measures one full fault-injection trial: Bernoulli
// node death plus lossy multi-hop delivery of every report.
func BenchmarkFaultyTrial(b *testing.B) {
	cfg := sim.Config{
		Params:    detect.Defaults(),
		Trials:    1,
		Faults:    faults.Bernoulli{DeadFrac: 0.2},
		CommRange: 6000,
		Loss: netsim.LossModel{
			PerHopDelivery: 0.9,
			MaxRetries:     2,
			PerHop:         10 * time.Second,
			Backoff:        5 * time.Second,
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunTrial(cfg, i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultyUplinkTrial measures one trial in the campaign's faulty
// configuration: N=180 sensors, 20% Bernoulli node death and a flat
// single-hop uplink delivering each report with probability 0.9, under
// the philox scheme.
func BenchmarkFaultyUplinkTrial(b *testing.B) {
	p := detect.Defaults()
	p.N = 180
	cfg := sim.Config{
		Params:   p,
		Trials:   1,
		Workers:  1,
		RNG:      field.SchemePhilox,
		Faults:   faults.Bernoulli{DeadFrac: 0.2},
		PDeliver: 0.9,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLossyTrial measures one lossy-relay trial in the campaign's
// lossy configuration: N=180 sensors relaying every report over a 6 km
// unit-disk network with 0.9 per-hop delivery and 2 retries, under the
// philox scheme. Each trial builds its network and routes only the
// sensors that report.
func BenchmarkLossyTrial(b *testing.B) {
	p := detect.Defaults()
	p.N = 180
	cfg := sim.Config{
		Params:    p,
		Trials:    1,
		Workers:   1,
		RNG:       field.SchemePhilox,
		CommRange: 6000,
		Loss: netsim.LossModel{
			PerHopDelivery: 0.9,
			MaxRetries:     2,
			PerHop:         10 * time.Second,
			Backoff:        5 * time.Second,
			Budget:         p.T,
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// coordinatorBench runs one full fan-out campaign (12 points, 4 shards)
// over the given worker URLs with a fresh ledger per iteration.
func coordinatorBench(b *testing.B, workers []string) {
	b.Helper()
	req := serve.SweepRequest{Axis: serve.AxisN, Trials: 50, Seed: 7}
	for n := 60; n < 300; n += 20 {
		req.Values = append(req.Values, float64(n))
	}
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := fabric.Config{
			Workers:          workers,
			Request:          req,
			LedgerPath:       filepath.Join(dir, fmt.Sprintf("ledger-%d.json", i)),
			ShardSize:        3,
			Retries:          10,
			RetryBackoff:     time.Millisecond,
			StallTimeout:     10 * time.Second,
			MaxHedges:        0,
			CircuitThreshold: 2,
			CircuitCooldown:  10 * time.Millisecond,
			Tick:             time.Millisecond,
		}
		c, err := fabric.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoordinatorFanout measures a distributed sweep campaign over a
// healthy 3-worker fleet: shard dispatch, NDJSON reassembly, and ledger
// persistence on top of the raw sweep compute.
func BenchmarkCoordinatorFanout(b *testing.B) {
	var workers []string
	for i := 0; i < 3; i++ {
		ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
		defer ts.Close()
		workers = append(workers, ts.URL)
	}
	coordinatorBench(b, workers)
}

// BenchmarkCoordinatorFanoutDegraded is the same campaign with one of the
// three workers answering 503 on every other request: the price of
// retries, backoff, and circuit breaking relative to the clean fleet.
func BenchmarkCoordinatorFanoutDegraded(b *testing.B) {
	var workers []string
	for i := 0; i < 3; i++ {
		ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
		defer ts.Close()
		workers = append(workers, ts.URL)
	}
	p, err := chaos.Start(chaos.Config{Seed: 5, Target: workers[2], Err503Every: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	workers[2] = p.URL()
	coordinatorBench(b, workers)
}

// BenchmarkPlacementGreedy measures one full lazy-greedy placement solve —
// panel precompute, heap-driven selection, and the placed-vs-uniform
// comparison — on a small instance (20 sensors, 12x12 grid, 200 trials).
// The PR-10 headline for the deployment engine; gbd-bench tracks the same
// body in BENCH_PR10.json.
func BenchmarkPlacementGreedy(b *testing.B) {
	cfg := gbd.PlacementConfig{
		Base:     detect.Defaults().WithN(20),
		GridCols: 12, GridRows: 12,
		Trials:  200,
		Workers: 1,
		RNG:     gbd.SchemePhilox,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := gbd.Place(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
