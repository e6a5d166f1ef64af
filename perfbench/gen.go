package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	gbd "github.com/groupdetect/gbd"
)

// scenario is one generated analysis input: the fields a request
// overrides on the ONR defaults, plus the endpoint that serves it.
type scenario struct {
	Endpoint string  `json:"endpoint"` // "analyze", "nodes" or "latency"
	N        int     `json:"n"`
	V        float64 `json:"v"`
	Pd       float64 `json:"pd"`
	M        int     `json:"m"`
	K        int     `json:"k"`
	H        int     `json:"h,omitempty"` // h_nodes, for "nodes"
}

// params resolves the scenario against the defaults exactly as the
// server's canonicalization does.
func (s scenario) params() gbd.Params {
	p := gbd.Defaults()
	p.N, p.V, p.Pd, p.M, p.K = s.N, s.V, s.Pd, s.M, s.K
	return p
}

func (s scenario) path() string {
	if s.Endpoint == "latency" {
		return "/v1/latency"
	}
	return "/v1/analyze"
}

// fields renders the scenario object's members in a fixed order.
func (s scenario) fields() []string {
	return []string{
		`"n":` + strconv.Itoa(s.N),
		`"v":` + fmtFloat(s.V),
		`"pd":` + fmtFloat(s.Pd),
		`"m":` + strconv.Itoa(s.M),
		`"k":` + strconv.Itoa(s.K),
	}
}

// body is the canonical request body: fixed field order, no whitespace.
func (s scenario) body() []byte {
	b := `{"scenario":{` + strings.Join(s.fields(), ",") + `}`
	if s.H > 0 {
		b += `,"h_nodes":` + strconv.Itoa(s.H)
	}
	return []byte(b + "}")
}

// variantBody renders the same request with the scenario fields permuted
// and whitespace inserted, both chosen by v >= 1: distinct v give
// byte-distinct bodies that canonicalize to the same cache key.
func (s scenario) variantBody(v int) []byte {
	f := s.fields()
	perm := v % 120 // 5! field orders
	var order []string
	for n := len(f); n > 0; n-- {
		i := perm % n
		perm /= n
		order = append(order, f[i])
		f = append(f[:i:i], f[i+1:]...)
	}
	ws := v / 120 // base-4 digits: 0-3 spaces after each separator
	var b strings.Builder
	b.WriteString(`{"scenario":{`)
	for i, fld := range order {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strings.Repeat(" ", ws%4))
		ws /= 4
		b.WriteString(fld)
	}
	b.WriteString(strings.Repeat(" ", ws%4))
	ws /= 4
	b.WriteString(`}`)
	if s.H > 0 {
		b.WriteString(`,"h_nodes":` + strconv.Itoa(s.H))
	}
	b.WriteString(strings.Repeat(" ", ws%4))
	b.WriteString(`}`)
	return []byte(b.String())
}

func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// maxVariant bounds variantBody's distinct encodings: 120 field orders
// times 4^7 whitespace patterns (v = maxVariant wraps to the canonical
// bytes).
const maxVariant = 120 * 16384

// stageTuple is what detect's stage cache keys on, minus the planned
// truncation bounds: every scenario field except M and K.
type stageTuple struct {
	N     int
	V, Pd float64
}

// reuseWindow is how far back a reusing request looks for its stage
// tuple. It models a client sweeping M over a scenario it just asked
// about, and keeps the reused tuples inside detect's 256-entry stage
// cache so reuse can hit.
const reuseWindow = 32

// coldInputs draws the analyze_cold request stream: count requests with
// pairwise distinct cache keys. Half reuse a recent stage tuple at an M
// not yet used with it. Endpoint mix: 70% analyze, 10% analyze with
// h_nodes, 20% latency. M is log-uniform per endpoint over the range
// where that evaluator's cost stays comparable (see README.md).
func coldInputs(seed int64, count int) (reqs []scenario, reused []bool) {
	rng := rand.New(rand.NewSource(seed))
	var tuples []stageTuple
	usedM := map[stageTuple]map[int]bool{}
	seen := map[scenario]bool{}
	for len(reqs) < count {
		s := scenario{Endpoint: "analyze"}
		mHi := 200
		switch u := rng.Float64(); {
		case u < 0.10:
			s.Endpoint, s.H, mHi = "nodes", 2+rng.Intn(2), 100
		case u < 0.30:
			s.Endpoint, mHi = "latency", 50
		}
		reuse := len(tuples) > 0 && rng.Float64() < 0.5
		var t stageTuple
		if reuse {
			lo := max(0, len(tuples)-reuseWindow)
			t = tuples[lo+rng.Intn(len(tuples)-lo)]
		} else {
			t = stageTuple{
				N:  60 + rng.Intn(341),
				V:  6 + 0.5*float64(rng.Intn(21)),
				Pd: 0.6 + 0.01*float64(rng.Intn(36)),
			}
			t.Pd = math.Round(t.Pd*100) / 100
		}
		s.N, s.V, s.Pd = t.N, t.V, t.Pd
		s.K = 3 + rng.Intn(6)
		s.M = logUniform(rng, 20, mHi)
		if seen[s] || (reuse && usedM[t][s.M]) {
			continue
		}
		if !reuse {
			if usedM[t] != nil {
				continue // a fresh draw collided with an old tuple
			}
			tuples = append(tuples, t)
			usedM[t] = map[int]bool{}
		}
		seen[s] = true
		usedM[t][s.M] = true
		reqs = append(reqs, s)
		reused = append(reused, reuse)
	}
	return reqs, reused
}

func logUniform(rng *rand.Rand, lo, hi int) int {
	return int(math.Round(float64(lo) * math.Pow(float64(hi)/float64(lo), rng.Float64())))
}

// hotKeys draws the serve_hot key set: n distinct /v1/analyze scenarios
// with small windows, so warming them is cheap.
func hotKeys(seed int64, n int) []scenario {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	seen := map[scenario]bool{}
	var keys []scenario
	for len(keys) < n {
		s := scenario{
			Endpoint: "analyze",
			N:        60 + rng.Intn(341),
			V:        6 + 0.5*float64(rng.Intn(21)),
			Pd:       math.Round((0.6+0.01*float64(rng.Intn(36)))*100) / 100,
			M:        20 + rng.Intn(41),
			K:        3 + rng.Intn(6),
		}
		if !seen[s] {
			seen[s] = true
			keys = append(keys, s)
		}
	}
	return keys
}

// Shares of the serve_hot mix.
const (
	hotBatchShare   = 0.15 // requests that are 4-item /v1/batch calls
	hotBatchItems   = 4
	hotVariantShare = 0.25 // single requests sent as a byte-unique variant
)

// hotOp is one serve_hot request: a single /v1/analyze of Keys[0], sent
// as its canonical bytes (Variant 0) or as variantBody(Variant), or a
// batch of hotBatchItems keys.
type hotOp struct {
	Replica int
	Batch   bool
	Keys    [hotBatchItems]int
	Variant int
}

// hotOpAt draws request i of the serve_hot stream from (seed, i) alone,
// so the stream needs no memory and clients render each body as they
// send it. Requests alternate replicas. Variant ids are i+1, distinct
// for the first maxVariant-1 requests.
func hotOpAt(seed int64, nkeys, i int) hotOp {
	r := splitmix(uint64(seed)*0x9e3779b97f4a7c15 + uint64(i))
	op := hotOp{Replica: i % 2}
	if r.float() < hotBatchShare {
		op.Batch = true
		for j := range op.Keys {
			op.Keys[j] = r.intn(nkeys)
		}
		return op
	}
	op.Keys[0] = r.intn(nkeys)
	if r.float() < hotVariantShare {
		op.Variant = i%(maxVariant-1) + 1
	}
	return op
}

// path is the endpoint the request posts to.
func (op hotOp) path() string {
	if op.Batch {
		return "/v1/batch"
	}
	return "/v1/analyze"
}

// appendBody renders the request body onto buf; canon holds each key's
// canonical body.
func (op hotOp) appendBody(buf []byte, keys []scenario, canon [][]byte) []byte {
	switch {
	case op.Batch:
		buf = append(buf, `{"items":[`...)
		for j, k := range op.Keys {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"op":"analyze","request":`...)
			buf = append(buf, canon[k]...)
			buf = append(buf, '}')
		}
		return append(buf, "]}"...)
	case op.Variant > 0:
		return append(buf, keys[op.Keys[0]].variantBody(op.Variant)...)
	}
	return append(buf, canon[op.Keys[0]]...)
}

// splitmix is a SplitMix64 stream: a cheap per-request generator.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }

func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// campaignJob is one Monte Carlo point of the campaign workload.
type campaignJob struct {
	Class string // "plain", "legacy", "faulty", "lossy"
	N     int
	Seed  int64
}

// campaignNs is the N sweep every trial class runs; campaignTrials is the
// paper's trials per point.
var campaignNs = []int{120, 180, 240}

const campaignTrials = 10000

var campaignClasses = []string{"plain", "legacy", "faulty", "lossy"}

// campaignJobs lists the campaign's jobs, class by class, with seeds
// drawn from the workload seed.
func campaignJobs(seed int64) []campaignJob {
	rng := rand.New(rand.NewSource(seed))
	var jobs []campaignJob
	for _, c := range campaignClasses {
		for _, n := range campaignNs {
			jobs = append(jobs, campaignJob{Class: c, N: n, Seed: rng.Int63()})
		}
	}
	return jobs
}

func (j campaignJob) String() string { return fmt.Sprintf("%s/n=%d", j.Class, j.N) }
