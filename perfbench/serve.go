package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/groupdetect/gbd/internal/obs"
	"github.com/groupdetect/gbd/internal/serve"
)

// replicas is a set of in-process serve replicas on loopback listeners.
// With two or more, they shard the result cache through peer.
type replicas struct {
	urls []string
	srvs []*http.Server
	wg   sync.WaitGroup
}

func startReplicas(n int, rec *recorder) (*replicas, error) {
	r := &replicas{}
	var lns []net.Listener
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns = append(lns, ln)
		r.urls = append(r.urls, "http://"+ln.Addr().String())
	}
	for i, ln := range lns {
		cfg := serve.Config{}
		if n > 1 {
			cfg.Peers, cfg.Self = r.urls, r.urls[i]
		}
		hs := &http.Server{
			Handler:           tracedHandler(rec, i, serve.New(cfg).Handler()),
			ReadHeaderTimeout: 10 * time.Second,
		}
		r.srvs = append(r.srvs, hs)
		r.wg.Add(1)
		go func(ln net.Listener) {
			defer r.wg.Done()
			hs.Serve(ln) // returns http.ErrServerClosed once close runs
		}(ln)
	}
	return r, nil
}

// close stops every replica and waits for their serve loops to return.
func (r *replicas) close() {
	for _, hs := range r.srvs {
		hs.Close()
	}
	r.wg.Wait()
}

// client is the load generator's HTTP client: at most conns connections
// per replica, so nproc closed-loop clients hold at most nproc each.
type client struct{ hc *http.Client }

func newClient(conns int) *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) post(url string, body []byte, id int64) (status int, xcache string, resp []byte, err error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(benchIDHeader, strconv.FormatInt(id, 10))
	r, err := c.hc.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	return r.StatusCode, r.Header.Get("X-Cache"), resp, err
}

// result is one closed-loop operation, timed from the phase start. It
// holds no pointers, so the collector never scans the results of a run:
// stored with pointers, the several hundred thousand results of a
// serve_hot run took most of each collection's mark phase, and the
// collections they lengthened set that run's tail latency. Errors, which
// are rare, are kept beside the results instead.
type result struct {
	start, end time.Duration
	status     int32
	bytes      int32
	forwarded  bool
}

// closedLoop runs clients goroutines that each send their next request
// only after the previous one completed, taking requests 0..n-1 in order
// until the inputs or dur run out; do(c, i, t0) sends request i from
// client c. It returns the completed requests, indexed like the inputs,
// the failed ones' errors by index, and the wall time to the last
// completion.
func closedLoop(clients, n int, dur time.Duration, do func(c, i int, t0 time.Time) (result, error)) ([]result, map[int]error, time.Duration) {
	res := make([]result, n)
	// Touch every page up front: peak RSS then counts the whole array,
	// not however much of it the run happened to fill.
	for i := range res {
		res[i].status = -1
	}
	clientErrs := make([]map[int]error, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(t0) < dur {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				var err error
				if res[i], err = do(c, i, t0); err != nil {
					if clientErrs[c] == nil {
						clientErrs[c] = map[int]error{}
					}
					clientErrs[c][i] = err
				}
			}
		}(c)
	}
	wg.Wait()
	res = res[:min(int(next.Load()), n)]
	errs := map[int]error{}
	for _, m := range clientErrs {
		for i, err := range m {
			errs[i] = err
		}
	}
	var wall time.Duration
	for _, r := range res {
		wall = max(wall, r.end)
	}
	return res, errs, wall
}

// blockSize is the request count whose completion time wall_s reports
// for the serve workloads.
const blockSize = 1000

// hotLatencyBlock is the request count over which serve_hot takes its
// latency percentiles. Each p99 has one sample beyond it. On a shared
// 2-vCPU host, CPU steal stalls the one or two requests in flight at the
// time, so a block's tail holds every stall that struck the block. A
// 100-request serve_hot block lasts a few milliseconds, and the median
// one is seldom struck; a 1000-request block is struck most of the time,
// and its p99 then tracks the host's steal rate. analyze_cold requests
// take milliseconds each, so its 1000-request blocks (about 1.6 s) average
// over the request mix and steal alike.
const hotLatencyBlock = 100

// summarizeLoop derives the end-to-end metrics of a closed-loop phase.
// Every figure is a median over blocks of consecutive requests: the
// block's time and rate over blocks of blockSize, its latency
// percentiles over blocks of latencyBlock. A burst of CPU steal on a
// shared host then moves the blocks it hit, not the run's figure.
func summarizeLoop(rep *report, res []result, wall time.Duration, latencyBlock int) {
	p50s, p99s := blockQuantiles(res, latencyBlock, 0.5), blockQuantiles(res, latencyBlock, 0.99)
	var blockWalls []float64
	prevEnd := time.Duration(0)
	for lo := 0; lo+blockSize <= len(res) || lo == 0; lo += blockSize {
		block := res[lo:min(lo+blockSize, len(res))]
		var end time.Duration
		for _, r := range block {
			end = max(end, r.end)
		}
		blockWalls = append(blockWalls, (end - prevEnd).Seconds())
		prevEnd = end
		if len(block) < blockSize {
			break
		}
	}
	rep.e2e["wall_s"] = median(blockWalls)
	rep.e2e["ops_per_s"] = float64(min(len(res), blockSize)) / rep.e2e["wall_s"]
	rep.e2e["op_p50_ms"] = median(p50s)
	rep.e2e["op_p99_ms"] = median(p99s)
	rep.linef("metric ops_per_s = %.1f 1/s (median block; %d requests in %.2f s overall)", rep.e2e["ops_per_s"], len(res), wall.Seconds())
	rep.linef("metric op_p50_ms = %.4f ms (median over %d blocks of %d requests)", rep.e2e["op_p50_ms"], len(p50s), latencyBlock)
	rep.linef("metric op_p99_ms = %.4f ms (median over %d blocks of %d requests)", rep.e2e["op_p99_ms"], len(p99s), latencyBlock)
	rep.linef("metric wall_s = %.4f s (median time to complete a block of %d requests)", rep.e2e["wall_s"], blockSize)
}

// blockQuantiles returns the q-quantile of the latency, in ms, of each
// block of size consecutive results; a run shorter than one block is one
// block.
func blockQuantiles(res []result, size int, q float64) []float64 {
	var out []float64
	ms := make([]float64, 0, size)
	for lo := 0; lo+size <= len(res) || lo == 0; lo += size {
		ms = ms[:0]
		for _, r := range res[lo:min(lo+size, len(res))] {
			ms = append(ms, float64(r.end-r.start)/1e6)
		}
		out = append(out, quantile(ms, q))
		if len(ms) < size {
			break
		}
	}
	return out
}

// serveCounters are the serve layer's process-wide counters.
type serveCounters struct{ lookups, hits, misses, shed uint64 }

func readServeCounters() serveCounters {
	c := func(name string) uint64 { return obs.Default.Counter(name).Value() }
	return serveCounters{
		lookups: c("serve.cache.lookups"),
		hits:    c("serve.cache.hits"),
		misses:  c("serve.cache.misses"),
		shed:    c("serve.rejected.queue") + c("serve.rejected.deadline"),
	}
}

// serveLayer derives the serve and peer per-layer metrics of a traced
// closed-loop phase from its client and handler spans.
func serveLayer(rep *report, rec *recorder, res []result, c0, c1 serveCounters, allocs uint64) {
	clients := map[int64]span{}
	for _, s := range rec.named("client") {
		clients[s.ID] = s
	}
	byOutcome := map[string][]time.Duration{}
	var transport, overhead []time.Duration
	var edges, owners []span
	for _, s := range rec.named("serve") {
		if s.Peer {
			owners = append(owners, s)
			continue
		}
		edges = append(edges, s)
		byOutcome[s.Outcome] = append(byOutcome[s.Outcome], s.dur())
		if c, ok := clients[s.Parent]; ok {
			transport = append(transport, c.dur()-s.dur())
		}
	}
	// A forwarded request's owner span nests inside its edge span on the
	// other replica; with nproc clients at most a few edges are open at
	// once, so keep only unambiguous matches.
	for _, o := range owners {
		var match []span
		for _, e := range edges {
			if e.Outcome == "forward" && e.Replica != o.Replica && e.Start <= o.Start && o.End <= e.End {
				match = append(match, e)
			}
		}
		if len(match) == 1 {
			overhead = append(overhead, match[0].dur()-o.dur())
		}
	}
	us := func(ds []time.Duration, q float64) float64 { return quantile(durationsMs(ds), q) * 1e3 }
	ops := float64(len(res))
	var respBytes, forwards float64
	for _, r := range res {
		respBytes += float64(r.bytes)
		if r.forwarded {
			forwards++
		}
	}
	lookups := float64(c1.lookups - c0.lookups)
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(c1.hits-c0.hits) / lookups
	}
	l := rep.layer
	l["serve.hit.handler_us_p50"] = us(byOutcome["hit"], 0.5)
	l["serve.miss.handler_us_p50"] = us(byOutcome["miss"], 0.5)
	l["serve.miss.handler_us_p99"] = us(byOutcome["miss"], 0.99)
	l["serve.forward.handler_us_p50"] = us(byOutcome["forward"], 0.5)
	l["serve.transport_us_p50"] = us(transport, 0.5)
	l["serve.hit_ratio"] = hitRatio
	l["serve.shed_count"] = float64(c1.shed - c0.shed)
	l["serve.allocs_per_op"] = float64(allocs) / ops
	l["serve.resp_bytes_per_op"] = respBytes / ops
	l["peer.forward_share"] = forwards / ops
	l["peer.forward_overhead_us_p50"] = us(overhead, 0.5)
	rep.linef("trace: handler spans hit=%d miss=%d forward=%d, owner spans %d (%d matched), transport samples %d",
		len(byOutcome["hit"]), len(byOutcome["miss"]), len(byOutcome["forward"]), len(owners), len(overhead), len(transport))
}

// setupRepeats is how many times a timed run sets its workload up; it
// reports the median so set-up cost is measured as steadily as the rest.
const setupRepeats = 9

// measureSetup runs setup setupRepeats times (once when traced), keeps
// the last environment and tears the others down.
func measureSetup[E any](rep *report, traced bool, setup func() (E, error), teardown func(E)) (E, error) {
	n := setupRepeats
	if traced {
		n = 1
	}
	var env E
	var ds []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(env)
		}
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			return env, err
		}
		ds = append(ds, time.Since(t0).Seconds())
		env = e
	}
	rep.e2e["setup_s"] = median(ds)
	rep.linef("metric setup_s = %.4f s (median of %d set-ups)", rep.e2e["setup_s"], n)
	return env, nil
}

func nproc() int { return runtime.NumCPU() }
