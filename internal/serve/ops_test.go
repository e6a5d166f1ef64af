package serve

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// opTestBodies holds one small, fast request per op of the table;
// TestOpTable fails for an op added without one.
var opTestBodies = map[string]string{
	"analyze":     `{"scenario":{"n":90},"options":{"include_pmf":true}}`,
	"design":      `{"scenario":{},"target_prob":0.8}`,
	"latency":     `{"scenario":{"m":10}}`,
	"simulate":    `{"scenario":{},"trials":200,"seed":3,"dead_frac":0.1}`,
	"infer":       `{"scenario":{},"trials":40,"seed":2,"dead_frac":0.2}`,
	"place":       `{"scenario":{"n":20},"grid_cols":8,"grid_rows":8,"trials":100,"seed":1}`,
	"sweep_point": `{"scenario":{},"axis":"n","value":90,"index":3,"trials":100,"seed":5}`,
}

// TestOpTable runs every op of the table through both surfaces, each on
// its own server so both compute: a /v1/batch item and the standalone
// POST (where the op has a path) render the same bytes, and a
// byte-identical repeat of the POST is a hit served through the raw-body
// alias the first request attached.
func TestOpTable(t *testing.T) {
	standalone, batch := New(Config{}), New(Config{})
	ts, tb := httptest.NewServer(standalone.Handler()), httptest.NewServer(batch.Handler())
	defer ts.Close()
	defer tb.Close()
	for _, o := range ops {
		body, ok := opTestBodies[o.name]
		if !ok {
			t.Errorf("op %q has no test body", o.name)
			continue
		}
		t.Run(o.name, func(t *testing.T) {
			code, xcache, line := post(t, tb, "/v1/batch", `{"items":[{"op":"`+o.name+`","request":`+body+`}]}`)
			if code != http.StatusOK || xcache != "hit=0,miss=1,forward=0,error=0" {
				t.Fatalf("batch: status %d, X-Cache %q: %s", code, xcache, line)
			}
			if o.path == "" {
				return
			}
			code, src, first := post(t, ts, o.path, body)
			if code != http.StatusOK || src != "miss" {
				t.Fatalf("%s: status %d, X-Cache %q: %s", o.path, code, src, first)
			}
			if !bytes.Equal(first, line) {
				t.Errorf("%s differs from its batch line:\nstandalone %q\nbatch      %q", o.path, first, line)
			}
			digest := sha256.Sum256([]byte(o.path + body))
			if _, ok := standalone.cache.getBytes(digest[:]); !ok {
				t.Errorf("%s attached no raw-body alias", o.path)
			}
			lookups0 := cacheLookups.Value()
			_, src, again := post(t, ts, o.path, body)
			if src != "hit" || !bytes.Equal(again, first) {
				t.Errorf("byte-identical repeat: X-Cache %q, same bytes %v; want a hit with the same bytes", src, bytes.Equal(again, first))
			}
			// One lookup: the raw alias answered before any decoding.
			if n := cacheLookups.Value() - lookups0; n != 1 {
				t.Errorf("byte-identical repeat took %d cache lookups, want 1 (the raw alias)", n)
			}
		})
	}
}

// TestOpForwardReachesOwnerKey: on a two-replica sharded fleet, a design
// and a simulate request posted to the replica that does not own their
// key are forwarded as their raw bytes and land at the owner under the
// canonical key the entry replica derived.
func TestOpForwardReachesOwnerKey(t *testing.T) {
	f := startFleet(t, 2, Config{})
	for _, c := range []struct{ op, format string }{
		{"design", `{"scenario":{}, "horizon":%d}`},
		{"simulate", `{"scenario":{}, "trials":100, "seed":%d}`},
	} {
		o, err := lookupOp(c.op)
		if err != nil {
			t.Fatal(err)
		}
		// Find a body whose key replica 1 owns, as seen from replica 0.
		var body, key string
		for i := 1000; i < 1064 && body == ""; i++ {
			b := fmt.Sprintf(c.format, i)
			k, _, err := o.plan(f.servers[0], []byte(b))
			if err != nil {
				t.Fatal(err)
			}
			if m, _, self := f.servers[0].peers.Route(k); !self && m == 1 {
				body, key = b, k
			}
		}
		if body == "" {
			t.Fatalf("%s: no sampled key owned by replica 1", c.op)
		}
		resp, err := http.Post(f.urls[0]+o.path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if want := "forward-" + upstreamTag(f.urls[1]); resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != want {
			t.Fatalf("%s: status %d, X-Cache %q, want %q: %s", c.op, resp.StatusCode, resp.Header.Get("X-Cache"), want, data)
		}
		owned, ok := f.servers[1].cache.get(key)
		if !ok || !bytes.Equal(owned, data) {
			t.Errorf("%s: owner holds no entry under the canonical key, or different bytes", c.op)
		}
		// The owner hashed the very bytes the client sent: the forward
		// replays the raw body rather than a re-encoding.
		digest := sha256.Sum256([]byte(o.path + body))
		if _, ok := f.servers[1].cache.getBytes(digest[:]); !ok {
			t.Errorf("%s: owner has no raw-body alias for the forwarded bytes", c.op)
		}
	}
}
