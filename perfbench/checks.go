package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	gbd "github.com/groupdetect/gbd"
)

// defaultDetectionProb is the ONR default scenario's served
// detection_prob, pinned bit for bit by the repository's serve smoke test.
const defaultDetectionProb = 0.780128729364132

// detectionProb extracts detection_prob from a rendered response.
func detectionProb(body []byte) (float64, error) {
	var r struct {
		DetectionProb *float64 `json:"detection_prob"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("decode response: %w", err)
	}
	if r.DetectionProb == nil {
		return 0, fmt.Errorf("response has no detection_prob: %.80q", body)
	}
	return *r.DetectionProb, nil
}

// checkDefault checks the default scenario's served answer.
func checkDefault(status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("default scenario: status %d", status)
	}
	got, err := detectionProb(body)
	if err != nil {
		return fmt.Errorf("default scenario: %w", err)
	}
	return checkDefaultProb(got)
}

// checkDefaultProb checks the default scenario's detection probability.
func checkDefaultProb(got float64) error {
	if math.Float64bits(got) != math.Float64bits(defaultDetectionProb) {
		return fmt.Errorf("default scenario: detection_prob %v, want %v", got, defaultDetectionProb)
	}
	return nil
}

// checkCold checks one analyze_cold response: a 200 computed on this
// request (every body is unique, so no response may come from the
// cache) whose detection_prob is bit-equal to the direct evaluation.
func checkCold(status int, xcache string, body []byte, want float64) error {
	if status != 200 {
		return fmt.Errorf("status %d: %.120s", status, body)
	}
	if xcache != "miss" {
		return fmt.Errorf("X-Cache %q, want miss", xcache)
	}
	got, err := detectionProb(body)
	if err != nil {
		return err
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("detection_prob %v, direct evaluation %v", got, want)
	}
	return nil
}

// reference evaluates a scenario directly, through the same public entry
// point the server calls. pmfLen is the report-count PMF's length for
// plain analyses, 0 otherwise.
func reference(s scenario) (prob float64, pmfLen int, err error) {
	p := s.params()
	switch s.Endpoint {
	case "nodes":
		r, err := gbd.AnalyzeNodes(p, s.H, gbd.MSOptions{})
		if err != nil {
			return 0, 0, err
		}
		return r.DetectionProb, 0, nil
	case "latency":
		cdf, err := gbd.Latency(p, gbd.MSOptions{})
		if err != nil {
			return 0, 0, err
		}
		return cdf.P[len(cdf.P)-1], 0, nil
	}
	r, err := gbd.Analyze(p, gbd.MSOptions{})
	if err != nil {
		return 0, 0, err
	}
	return r.DetectionProb, len(r.PMF), nil
}

// checkHotSingle checks a serve_hot /v1/analyze response: served from a
// cache (this replica's, or the owner's through a forward) with exactly
// the bytes the key was warmed with.
func checkHotSingle(status int, xcache string, body, want []byte) error {
	if status != 200 {
		return fmt.Errorf("status %d: %.120s", status, body)
	}
	if o := outcome(xcache); o != "hit" && o != "forward" {
		return fmt.Errorf("X-Cache %q, want a hit or forwarded hit", xcache)
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("body %.80q differs from the warmed body %.80q", body, want)
	}
	return nil
}

// checkHotBatch checks a serve_hot /v1/batch response: no item computed
// or failed, and each NDJSON line is its key's warmed body.
func checkHotBatch(status int, xcache string, body []byte, want [][]byte) error {
	if status != 200 {
		return fmt.Errorf("status %d: %.120s", status, body)
	}
	if !strings.HasPrefix(xcache, "hit=") || !strings.Contains(xcache, ",miss=0,") || !strings.HasSuffix(xcache, ",error=0") {
		return fmt.Errorf("X-Cache %q, want only hits and forwards", xcache)
	}
	rest := body
	for i, w := range want {
		if !bytes.HasPrefix(rest, w) {
			return fmt.Errorf("batch line %d differs from the warmed body %.80q", i, w)
		}
		rest = rest[len(w):]
	}
	if len(rest) != 0 {
		return fmt.Errorf("batch has %d trailing bytes", len(rest))
	}
	return nil
}

// simTolerance is the allowed gap between a simulated and an analytical
// detection probability: the paper's ~1% model gap plus four standard
// errors of a trials-trial binomial estimate.
func simTolerance(p float64, trials int) float64 {
	return 0.01 + 4*math.Sqrt(p*(1-p)/float64(trials))
}

// checkSim checks one Monte Carlo job: every trial ran, and when the
// class has an analytical reference (analysis >= 0), the estimate is
// within simTolerance of it.
func checkSim(res *gbd.SimResult, trials int, analysis float64) error {
	if res.Trials != trials {
		return fmt.Errorf("completed %d of %d trials", res.Trials, trials)
	}
	if analysis >= 0 {
		if d := math.Abs(res.DetectionProb - analysis); d > simTolerance(analysis, trials) {
			return fmt.Errorf("simulated %.4f vs analysis %.4f: gap %.4f exceeds %.4f",
				res.DetectionProb, analysis, d, simTolerance(analysis, trials))
		}
	}
	return nil
}

// checkPlacement checks that the placed layout detects at least as well
// as uniform deployment on the same tracks.
func checkPlacement(r *gbd.PlacementResult) error {
	if r.VsUniform.PlacedProb < r.VsUniform.UniformProb {
		return fmt.Errorf("placed %.4f below uniform %.4f", r.VsUniform.PlacedProb, r.VsUniform.UniformProb)
	}
	return nil
}

// checkSameResults compares the result digests of two runs of the same
// campaign.
func checkSameResults(what, a, b string) error {
	if a != b {
		return fmt.Errorf("%s: result digest %s differs from %s", what, a, b)
	}
	return nil
}
