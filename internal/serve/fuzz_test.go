// Fuzz coverage for the request-canonicalization layer: arbitrary raw
// bodies must never panic the decoder or the key derivation, and any
// body that is accepted must canonicalize deterministically — the same
// bytes always land on the same cache key. Key stability is the safety
// property the whole cache rests on: a nondeterministic key would let
// one request populate an entry another spelling of itself misses, or
// worse, collide two different requests.
//
// Every target plans through the op table, the same path a standalone
// POST and a /v1/batch item take. Each is seeded with its op's CI smoke
// body where the smoke jobs post one.
package serve

import (
	"testing"
)

// fuzzServer is shared across fuzz iterations; key derivation is
// read-only on the server (config lookups), so this is race-free.
var fuzzServer = New(Config{})

// fuzzKeyStable fuzzes one op of the table: a body the op plans once
// must plan again, to the same cache key.
func fuzzKeyStable(f *testing.F, name string, seeds ...string) {
	o, err := lookupOp(name)
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		key, _, err := o.plan(fuzzServer, body)
		if err != nil {
			return
		}
		key2, _, err := o.plan(fuzzServer, body)
		if err != nil {
			t.Fatalf("body planned once but not twice: %v", err)
		}
		if key != key2 {
			t.Errorf("unstable cache key for %q: %q vs %q", body, key, key2)
		}
	})
}

func FuzzCanonicalizeAnalyze(f *testing.F) {
	fuzzKeyStable(f, "analyze",
		`{"scenario":{}}`,
		`{"scenario":{"n":100,"v":5},"options":{"gh":4,"g":4},"h_nodes":2}`,
		`{"scenario":{"pd":0.9},"rng":"philox"}`,
		`{"scenario":{"period_seconds":1e308}}`,
		`not json`,
		`{"scenario":{"n":-1}}`)
}

func FuzzCanonicalizeSimulate(f *testing.F) {
	fuzzKeyStable(f, "simulate",
		`{"scenario":{},"trials":100,"seed":42}`,
		`{"scenario":{"n":60},"trials":50,"dead_frac":0.2,"comm_range":6000,"per_hop_loss":0.1,"hop_retries":2}`,
		`{"scenario":{},"trials":1,"rng":"legacy"}`,
		`{"scenario":{},"trials":-5}`,
		`{"trials":100}`)
}

func FuzzCanonicalizeInfer(f *testing.F) {
	fuzzKeyStable(f, "infer",
		`{"scenario":{},"trials":100,"seed":42,"dead_frac":0.2}`,
		`{"scenario":{"n":60},"trials":50,"p_deliver":0.9,"beacons":true,"alpha":0.01,"beta":0.01}`,
		`{"scenario":{},"trials":50,"beacons":false,"rng":"philox"}`,
		`{"scenario":{},"trials":50,"p_deliver":0}`,
		`{"scenario":{},"trials":50,"alpha":0.9}`,
		`{"scenario":{},"trials":500,"seed":1,"dead_frac":0.2}`)
}

func FuzzCanonicalizeDesign(f *testing.F) {
	fuzzKeyStable(f, "design",
		`{"scenario":{}}`,
		`{"scenario":{"n":80,"k":3},"target_prob":0.95,"false_alarm_p":1e-3,"budget":0.05,"horizon":720,"n_max":400}`,
		`{"scenario":{},"target_prob":1.5}`,
		`{"scenario":{},"horizon":-1}`)
}

func FuzzCanonicalizeLatency(f *testing.F) {
	fuzzKeyStable(f, "latency",
		`{"scenario":{}}`,
		`{"scenario":{"m":10,"k":2},"options":{"matrix":true,"no_normalize":true}}`,
		`{"scenario":{"m":0}}`)
}

func FuzzCanonicalizePlace(f *testing.F) {
	fuzzKeyStable(f, "place",
		`{"scenario":{"n":60},"grid_cols":16,"grid_rows":16,"trials":500,"seed":1,"rng":"philox"}`,
		`{"scenario":{},"classes":[{"count":30,"rs":1000,"pd":0.9},{"count":10,"rs":2000,"pd":0.8}]}`,
		`{"scenario":{},"grid_cols":1000}`,
		`{"scenario":{},"trials":-1}`)
}

func FuzzCanonicalizeSweepPoint(f *testing.F) {
	fuzzKeyStable(f, "sweep_point",
		`{"scenario":{},"axis":"n","value":60,"trials":500,"seed":1}`,
		`{"scenario":{},"axis":"dead_frac","value":0.2,"index":3,"rng":"philox"}`,
		`{"scenario":{},"axis":"zzz","value":1}`,
		`{"scenario":{},"axis":"k","value":2.5,"index":-1}`)
}

// FuzzBatch: a body that decodes as a BatchRequest must plan every item
// to the same key (or the same refusal) twice.
func FuzzBatch(f *testing.F) {
	f.Add([]byte(`{"items":[{"op":"analyze","request":{"scenario":{}}},{"op":"latency","request":{"scenario":{}}}]}`))
	f.Add([]byte(`{"items":[{"op":"place","request":{"scenario":{"n":60},"grid_cols":16,"grid_rows":16,"trials":500,"seed":1,"rng":"philox"}}]}`))
	f.Add([]byte(`{"items":[{"op":"sweep_point","request":{"scenario":{},"axis":"n","value":90,"index":3}},{"op":"nope","request":{}},{"op":"design"}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req, req2 BatchRequest
		if err := decodeBytes(body, &req); err != nil {
			return
		}
		if err := decodeBytes(body, &req2); err != nil {
			t.Fatalf("body decoded once but not twice: %v", err)
		}
		for i, it := range req.Items {
			key, _, err := fuzzServer.planItem(it)
			key2, _, err2 := fuzzServer.planItem(req2.Items[i])
			if (err == nil) != (err2 == nil) || key != key2 {
				t.Errorf("item %d of %q planned unstably: (%q, %v) vs (%q, %v)", i, body, key, err, key2, err2)
			}
		}
	})
}
