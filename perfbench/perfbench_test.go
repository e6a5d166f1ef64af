package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	gbd "github.com/groupdetect/gbd"
)

func TestColdInputsDeterministicPerSeed(t *testing.T) {
	a, ra := coldInputs(7, 2000)
	b, rb := coldInputs(7, 2000)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(ra, rb) {
		t.Fatal("same seed gave different analyze_cold inputs")
	}
	c, _ := coldInputs(8, 2000)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same analyze_cold inputs")
	}
	seen := map[string]bool{}
	reused := 0
	for i, s := range a {
		body := string(s.body())
		if seen[s.path()+body] {
			t.Fatalf("request %d repeats %s", i, body)
		}
		seen[s.path()+body] = true
		if ra[i] {
			reused++
		}
		hi := map[string]int{"analyze": 200, "nodes": 100, "latency": 50}[s.Endpoint]
		if s.M < 20 || s.M > hi {
			t.Fatalf("request %d: M = %d outside [20, %d]", i, s.M, hi)
		}
		if err := s.params().Validate(); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if share := float64(reused) / float64(len(a)); share < 0.4 || share > 0.6 {
		t.Fatalf("stage-key reuse share %.3f, want about 0.5", share)
	}
}

func TestHotInputsDeterministicPerSeed(t *testing.T) {
	if !reflect.DeepEqual(hotKeys(3, hotKeyCount), hotKeys(3, hotKeyCount)) {
		t.Fatal("same seed gave different key sets")
	}
	if reflect.DeepEqual(hotKeys(3, hotKeyCount), hotKeys(4, hotKeyCount)) {
		t.Fatal("different seeds gave the same key set")
	}
	same, batches := true, 0
	for i := 0; i < 1000; i++ {
		op := hotOpAt(3, hotKeyCount, i)
		if op != hotOpAt(3, hotKeyCount, i) {
			t.Fatalf("request %d differs between draws of the same seed", i)
		}
		if op != hotOpAt(4, hotKeyCount, i) {
			same = false
		}
		if op.Replica != i%2 {
			t.Fatalf("request %d goes to replica %d", i, op.Replica)
		}
		if op.Batch {
			batches++
		}
	}
	if same {
		t.Fatal("different seeds gave the same request stream")
	}
	if batches < 100 || batches > 200 {
		t.Fatalf("%d batches in 1000 requests, want about %v", batches, hotBatchShare*1000)
	}
}

// TestVariantsAreCanonicallyEqual checks the serve_hot variants: distinct
// bytes, all decoding to the canonical request.
func TestVariantsAreCanonicallyEqual(t *testing.T) {
	s := hotKeys(1, 1)[0]
	s.H = 2
	var want any
	if err := json.Unmarshal(s.body(), &want); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{string(s.body()): true}
	for _, v := range []int{1, 2, 119, 120, 121, 5000, maxVariant - 1} {
		b := s.variantBody(v)
		if seen[string(b)] {
			t.Fatalf("variant %d repeats earlier bytes %s", v, b)
		}
		seen[string(b)] = true
		var got any
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("variant %d %s decodes differently from %s", v, b, s.body())
		}
	}
}

func TestCampaignJobsDeterministicPerSeed(t *testing.T) {
	if !reflect.DeepEqual(campaignJobs(5), campaignJobs(5)) {
		t.Fatal("same seed gave different jobs")
	}
	if reflect.DeepEqual(campaignJobs(5), campaignJobs(6)) {
		t.Fatal("different seeds gave the same jobs")
	}
	if n := len(campaignJobs(5)); n != len(campaignClasses)*len(campaignNs) {
		t.Fatalf("%d jobs", n)
	}
}

// TestMetricNamesMatchBenchmarkFile checks the metric names' spelling and
// that BENCHMARK.json lists exactly the metrics this program reports.
func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			metricSpec
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var e2e []metricSpec
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.metricSpec)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's list")
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

func TestOutcome(t *testing.T) {
	for xc, want := range map[string]string{
		"hit": "hit", "miss": "miss", "dedup": "miss", "forward-127.0.0.1:80": "forward",
		"hit=4,miss=0,forward=0,error=0": "hit", "hit=3,miss=0,forward=1,error=0": "forward",
		"hit=3,miss=1,forward=0,error=0": "miss", "hit=3,miss=0,forward=0,error=1": "error", "": "error",
	} {
		if got := outcome(xc); got != want {
			t.Errorf("outcome(%q) = %q, want %q", xc, got, want)
		}
	}
}

// Each correctness check accepts a good response and rejects a corrupted
// one.

func TestCheckDefault(t *testing.T) {
	good := []byte(`{"detection_prob":0.780128729364132}`)
	if err := checkDefault(200, good); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		status int
		body   string
	}{
		{200, `{"detection_prob":0.7801287293641321}`},
		{200, `{"raw_tail":0.780128729364132}`},
		{500, string(good)},
		{200, `{`},
	} {
		if checkDefault(c.status, []byte(c.body)) == nil {
			t.Errorf("accepted status %d body %s", c.status, c.body)
		}
	}
}

func TestCheckCold(t *testing.T) {
	s := scenario{Endpoint: "analyze", N: 150, V: 8.5, Pd: 0.8, M: 30, K: 4}
	want, _, err := reference(s)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]float64{"detection_prob": want})
	if err := checkCold(200, "miss", body, want); err != nil {
		t.Fatal(err)
	}
	off, _ := json.Marshal(map[string]float64{"detection_prob": math.Nextafter(want, 1)})
	if checkCold(200, "miss", off, want) == nil {
		t.Error("accepted a detection_prob one ULP off")
	}
	if checkCold(200, "hit", body, want) == nil {
		t.Error("accepted a cache hit")
	}
	if checkCold(503, "", body, want) == nil {
		t.Error("accepted status 503")
	}
}

func TestCheckHot(t *testing.T) {
	a, b := []byte("{\"a\":1}\n"), []byte("{\"b\":2}\n")
	if err := checkHotSingle(200, "hit", a, a); err != nil {
		t.Fatal(err)
	}
	if err := checkHotSingle(200, "forward-127.0.0.1:1", a, a); err != nil {
		t.Fatal(err)
	}
	if checkHotSingle(200, "miss", a, a) == nil {
		t.Error("accepted a miss")
	}
	corrupt := bytes.Replace(a, []byte("1"), []byte("7"), 1)
	if checkHotSingle(200, "hit", corrupt, a) == nil {
		t.Error("accepted corrupted bytes")
	}
	batch := append(append([]byte{}, a...), b...)
	want := [][]byte{a, b}
	if err := checkHotBatch(200, "hit=1,miss=0,forward=1,error=0", batch, want); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		xc   string
		body []byte
	}{
		{"hit=1,miss=1,forward=0,error=0", batch},
		{"hit=2,miss=0,forward=0,error=1", batch},
		{"hit=2,miss=0,forward=0,error=0", append(append([]byte{}, b...), a...)},
		{"hit=2,miss=0,forward=0,error=0", append(append([]byte{}, batch...), '\n')},
		{"hit=2,miss=0,forward=0,error=0", batch[:len(batch)-1]},
	} {
		if checkHotBatch(200, c.xc, c.body, want) == nil {
			t.Errorf("accepted X-Cache %q body %q", c.xc, c.body)
		}
	}
}

func TestCheckSimAndPlacement(t *testing.T) {
	res := &gbd.SimResult{Trials: 10000, DetectionProb: 0.785}
	if err := checkSim(res, 10000, 0.780128729364132); err != nil {
		t.Fatal(err)
	}
	if checkSim(&gbd.SimResult{Trials: 9999, DetectionProb: 0.785}, 10000, -1) == nil {
		t.Error("accepted a job that lost a trial")
	}
	if checkSim(&gbd.SimResult{Trials: 10000, DetectionProb: 0.70}, 10000, 0.780128729364132) == nil {
		t.Error("accepted a simulation 0.08 off the analysis")
	}
	placed := &gbd.PlacementResult{}
	placed.VsUniform.PlacedProb, placed.VsUniform.UniformProb = 0.9, 0.8
	if err := checkPlacement(placed); err != nil {
		t.Fatal(err)
	}
	placed.VsUniform.PlacedProb = 0.7
	if checkPlacement(placed) == nil {
		t.Error("accepted placed below uniform")
	}
	if checkSameResults("x", "ab", "ab") != nil || checkSameResults("x", "ab", "ac") == nil {
		t.Error("digest comparison")
	}
}

// TestRunPrintsEveryMetric runs the untraced serve workloads briefly and
// checks the result line: every end-to-end metric, positive, with its
// unit. The traced run re-executes the benchmark binary, so it is
// exercised through run.py, not here.
func TestRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs live workloads")
	}
	for _, w := range []string{"analyze_cold", "serve_hot"} {
		var out bytes.Buffer
		if code := run([]string{"--workload", w, "--seed", "3", "--seconds", "1", "--trace", "0"}, &out); code != 0 {
			t.Fatalf("%s: exit %d\n%s", w, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line: %v", w, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("%s: %+v", w, res)
		}
		for _, m := range endToEnd {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || !(got.Value > 0) {
				t.Errorf("%s: metric %s = %+v", w, m.Name, got)
			}
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w, len(res.Metrics), len(endToEnd))
		}
	}
}
