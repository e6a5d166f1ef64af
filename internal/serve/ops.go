// The op table: every cacheable operation the server exposes, written
// once. An entry names the op, its standalone POST path ("" for
// sweep_point, which is a /v1/batch op only) and its plan: strict-decode
// the request body, canonicalize it into a cache key, and close over the
// compute. New registers POST <path> for every entry with a path, and
// /v1/batch resolves items by name in the same table, so a standalone
// request and a batch item of one op share the decoder, the key and the
// compute by construction.
package serve

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"strings"
)

// computeFunc runs one planned operation under the request context; its
// result is rendered once by renderCompute.
type computeFunc func(ctx context.Context) (any, error)

// op is one entry of the op table.
type op struct {
	name string
	path string
	plan func(s *Server, body []byte) (key string, compute computeFunc, err error)
}

// planOf lifts a typed plan into the table's byte-level signature: the
// body is strict-decoded into a fresh R before plan keys it.
func planOf[R any](plan func(s *Server, req R) (string, computeFunc, error)) func(*Server, []byte) (string, computeFunc, error) {
	return func(s *Server, body []byte) (string, computeFunc, error) {
		var req R
		if err := decodeBytes(body, &req); err != nil {
			return "", nil, err
		}
		return plan(s, req)
	}
}

// ops is the op table, in the order the unknown-op error lists it.
var ops = []op{
	{"analyze", "/v1/analyze", planOf(func(s *Server, req AnalyzeRequest) (string, computeFunc, error) {
		p, key, err := s.analyzeKey(req)
		return key, func(ctx context.Context) (any, error) { return s.computeAnalyze(ctx, p, req) }, err
	})},
	{"design", "/v1/design", planOf(func(s *Server, req DesignRequest) (string, computeFunc, error) {
		p, key, err := s.designKey(&req)
		return key, func(ctx context.Context) (any, error) { return s.computeDesign(ctx, p, req) }, err
	})},
	{"latency", "/v1/latency", planOf(func(s *Server, req LatencyRequest) (string, computeFunc, error) {
		p, key, err := s.latencyKey(req)
		return key, func(ctx context.Context) (any, error) { return s.computeLatency(ctx, p, req) }, err
	})},
	{"simulate", "/v1/simulate", planOf(func(s *Server, req SimulateRequest) (string, computeFunc, error) {
		p, key, err := s.simulateKey(req)
		return key, func(ctx context.Context) (any, error) { return s.computeSimulate(ctx, p, req) }, err
	})},
	{"infer", "/v1/infer", planOf(func(s *Server, req InferRequest) (string, computeFunc, error) {
		p, cfg, key, err := s.inferKey(req)
		return key, func(ctx context.Context) (any, error) { return s.computeInfer(ctx, p, req, cfg) }, err
	})},
	{"place", "/v1/place", planOf(func(s *Server, req PlaceRequest) (string, computeFunc, error) {
		cfg, classes, key, err := s.placeKey(req)
		return key, func(ctx context.Context) (any, error) { return s.computePlace(ctx, cfg, classes) }, err
	})},
	{"sweep_point", "", planOf(func(s *Server, req SweepPointRequest) (string, computeFunc, error) {
		p, key, err := s.sweepPointKey(req)
		// The row renders through the same SweepRow the streaming endpoint
		// marshals, with IndexBase carrying the global index.
		sreq := SweepRequest{
			Scenario: req.Scenario, Options: req.Options, Axis: req.Axis,
			Trials: req.Trials, Seed: req.Seed, RNG: req.RNG,
			IndexBase: req.Index,
		}
		return key, func(ctx context.Context) (any, error) { return s.sweepPoint(ctx, p, sreq, 0, req.Value) }, err
	})},
}

// lookupOp returns the table entry named name.
func lookupOp(name string) (op, error) {
	for _, o := range ops {
		if o.name == name {
			return o, nil
		}
	}
	names := make([]string, len(ops))
	for i, o := range ops {
		names[i] = o.name
	}
	return op{}, fmt.Errorf("op = %q must be one of %s: %w", name, strings.Join(names, ", "), ErrRequest)
}

// handleOp serves o's POST path. The raw-body fast path hashes the exact
// request bytes (prefixed with the path, so identical bodies posted to
// different ops never collide) and serves the rendered response without
// decoding when a previous byte-identical request attached the alias.
// Identical bytes always canonicalize identically, so the alias can never
// serve the wrong entry; bodies that differ only in whitespace or field
// order fall through to the canonical key.
func (s *Server) handleOp(o op) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sc := bodyPool.Get().(*bodyScratch)
		defer bodyPool.Put(sc)
		raw, err := readBody(r, o.path, sc)
		if err != nil {
			s.writeError(w, err)
			return
		}
		digest := sha256.Sum256(raw)
		if body, ok := s.cache.getBytes(digest[:]); ok {
			lookupHit()
			writeBody(w, "hit", body)
			return
		}
		lookupMiss()
		body := raw[len(o.path):]
		key, compute, err := o.plan(s, body)
		if err != nil {
			s.writeError(w, err)
			return
		}
		// The raw bytes outlive this call (the pooled scratch is released on
		// handler return, after serveKeyed finishes), so a forward replays
		// them verbatim.
		fwd := &forwardSpec{endpoint: o.path, body: func() []byte { return body }}
		s.serveKeyed(w, r, key, string(digest[:]), fwd, compute)
	}
}
