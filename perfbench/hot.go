package main

import (
	"fmt"
	"time"
)

// hotKeyCount is the serve_hot key set's size.
const hotKeyCount = 64

// hotPerSecond caps the serve_hot request stream per measured second, at
// about twice the rate this workload reaches on two cores.
const hotPerSecond = 40000

type hotEnv struct {
	keys  []scenario
	canon [][]byte // each key's canonical request body
	want  [][]byte // each key's rendered response, captured while warming
	reps  *replicas
	cl    *client
}

func (e *hotEnv) close() { e.cl.close(); e.reps.close() }

// setupHot starts two sharded replicas and warms every key through
// replica 0. A key replica 0 owns is then cached on replica 0 only; one
// replica 1 owns is cached on both, since a forwarding replica keeps the
// owner's bytes. So each key owned by replica 0 is forwarded once, the
// first time replica 1 sees it.
func setupHot(cfg runConfig, rec *recorder) (*hotEnv, error) {
	keys := hotKeys(cfg.seed, hotKeyCount)
	reps, err := startReplicas(2, rec)
	if err != nil {
		return nil, err
	}
	env := &hotEnv{keys: keys, reps: reps, cl: newClient(nproc())}
	for k, s := range keys {
		env.canon = append(env.canon, s.body())
		st, xc, body, err := env.cl.post(reps.urls[0]+"/v1/analyze", env.canon[k], 0)
		if err == nil && (st != 200 || (outcome(xc) != "miss" && outcome(xc) != "forward")) {
			err = fmt.Errorf("status %d X-Cache %q", st, xc)
		}
		if err != nil {
			env.close()
			return nil, fmt.Errorf("warm key %d: %w", k, err)
		}
		env.want = append(env.want, body)
	}
	return env, nil
}

// runHot is the serve_hot workload: nproc closed-loop clients
// alternating between two sharded replicas over a small warmed key set,
// so every request is a cache hit or a forwarded hit and detect does no
// work.
func runHot(cfg runConfig) *report {
	rep := newReport()
	var rec *recorder
	var timed map[string]float64
	if cfg.trace {
		timed, _ = timedChild(cfg, rep)
		rec = newRecorder()
		cfg.seconds = max(1, cfg.seconds/2)
	}
	env, err := measureSetup(rep, cfg.trace, func() (*hotEnv, error) { return setupHot(cfg, rec) }, (*hotEnv).close)
	if err != nil {
		rep.op(err, "set-up")
		return rep
	}
	defer env.close()
	rec.reset() // the trace covers the measured phase, not the warming

	c0, a0, g0 := readServeCounters(), allocObjects(), readGC()
	var heap *heapSampler
	if rec != nil {
		heap = startHeapSampler(10 * time.Millisecond)
	}
	bufs := make([][]byte, nproc())
	res, errs, wall := closedLoop(nproc(), hotPerSecond*cfg.seconds, cfg.dur(), func(c, i int, t0 time.Time) (result, error) {
		op := hotOpAt(cfg.seed, len(env.keys), i)
		bufs[c] = op.appendBody(bufs[c][:0], env.keys, env.canon)
		var cs int64
		if rec != nil {
			cs = rec.now()
		}
		start := time.Since(t0)
		st, xc, body, err := env.cl.post(env.reps.urls[op.Replica]+op.path(), bufs[c], int64(i+1))
		r := result{start: start, end: time.Since(t0), status: int32(st), forwarded: outcome(xc) == "forward", bytes: int32(len(body))}
		if rec != nil {
			rec.add(span{ID: int64(i + 1), Name: "client", Replica: op.Replica, Start: cs, End: rec.now()})
		}
		if err == nil {
			if op.Batch {
				want := make([][]byte, len(op.Keys))
				for j, k := range op.Keys {
					want[j] = env.want[k]
				}
				err = checkHotBatch(st, xc, body, want)
			} else {
				err = checkHotSingle(st, xc, body, env.want[op.Keys[0]])
			}
		}
		return r, err
	})
	a1, g1, c1 := allocObjects(), readGC(), readServeCounters()
	summarizeLoop(rep, res, wall, hotLatencyBlock)
	if len(res) == hotPerSecond*cfg.seconds {
		rep.linef("note: the request stream ran out before --seconds elapsed")
	}
	var variants, batches, forwards, singles int
	for i, r := range res {
		op := hotOpAt(cfg.seed, len(env.keys), i)
		rep.opf(errs[i], "request %d %s", i, op.path())
		switch {
		case op.Batch:
			batches++
		case op.Variant > 0:
			variants++
			singles++
		default:
			singles++
		}
		if r.forwarded {
			forwards++
		}
	}
	n := float64(max(len(res), 1))
	rep.linef("input: key_set=%d single=%d batch=%d (x%d items)", len(env.keys), singles, batches, hotBatchItems)
	rep.linef("input: byte_unique_share=%.3f (canonically equal variants among all requests)", float64(variants)/n)
	rep.linef("input: measured forward_share=%.5f (%d requests)", float64(forwards)/n, forwards)
	if singles > 0 {
		// Every single request looks up its raw-body digest first; a miss
		// there (serve.cache.misses, as no key misses) means it decoded.
		rep.linef("input: measured decode_path_share=%.3f of single requests (raw-digest alias misses)",
			float64(c1.misses-c0.misses)/float64(singles))
	}
	if rec != nil {
		procLayer(rep, g0, g1, heap.peakMB())
		serveLayer(rep, rec, res, c0, c1, a1-a0)
		if timed != nil {
			rep.layer["trace.overhead_frac"] = 1 - rep.e2e["ops_per_s"]/timed["ops_per_s"]
		}
	}
	for _, u := range env.reps.urls {
		st, _, body, err := env.cl.post(u+"/v1/analyze", []byte(`{"scenario":{}}`), 0)
		if err == nil {
			err = checkDefault(st, body)
		}
		rep.op(err, "default scenario at "+u)
	}
	if rec != nil {
		if err := rec.write(cfg.tracePath(".jsonl"), hostFingerprint()); err != nil {
			rep.op(err, "write spans")
		}
	}
	return rep
}
