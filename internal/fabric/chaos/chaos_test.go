package chaos

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// upstream serves a fixed 4-row NDJSON body, like a small sweep stream.
const streamBody = `{"index":0,"axis":"n","value":60,"analysis":0.5}
{"index":1,"axis":"n","value":120,"analysis":0.6}
{"index":2,"axis":"n","value":180,"analysis":0.7}
{"index":3,"axis":"n","value":240,"analysis":0.8}
`

func upstream(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, streamBody)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func start(t *testing.T, cfg Config) *Proxy {
	t.Helper()
	p, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestScheduleDeterministic: the fault plan is a pure function of (seed,
// request number) — two proxies with the same schedule agree on every
// request, and a different seed shifts the phase.
func TestScheduleDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Target: "http://unused", DropEvery: 5, Err503Every: 4, TruncateEvery: 3, StallEvery: 7}
	a, b := start(t, cfg), start(t, cfg)
	same := 0
	for n := int64(1); n <= 200; n++ {
		ka, ca := a.plan(n)
		kb, cb := b.plan(n)
		if ka != kb || ca != cb {
			t.Fatalf("request %d: plans diverge under the same seed (%v/%v vs %v/%v)", n, ka, ca, kb, cb)
		}
		if ka != faultNone {
			same++
		}
	}
	if same == 0 {
		t.Fatal("schedule injected no faults over 200 requests")
	}
	cfg.Seed = 43
	c := start(t, cfg)
	diverged := false
	for n := int64(1); n <= 200; n++ {
		ka, _ := a.plan(n)
		kc, _ := c.plan(n)
		if ka != kc {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("changing the seed never changed the schedule")
	}
}

// TestForwardClean: with no faults scheduled, the proxy is transparent.
func TestForwardClean(t *testing.T) {
	p := start(t, Config{Seed: 1, Target: upstream(t).URL})
	resp, err := http.Post(p.URL()+"/v1/sweep", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(body) != streamBody {
		t.Fatalf("clean forward mangled the stream: status %d, body %q", resp.StatusCode, body)
	}
	if c := p.Counts(); c.Forwarded != 1 || c.Drops+c.Errs503+c.Truncates+c.Stalls != 0 {
		t.Fatalf("clean forward counted faults: %+v", c)
	}
}

// TestInjects503AndDrop: scheduled faults surface as a 503 response and
// a reset connection respectively, without touching the upstream.
func TestInjects503AndDrop(t *testing.T) {
	p := start(t, Config{Seed: 0, Target: upstream(t).URL, Err503Every: 1})
	resp, err := http.Post(p.URL()+"/v1/sweep", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}

	d := start(t, Config{Seed: 0, Target: upstream(t).URL, DropEvery: 1})
	if _, err := http.Post(d.URL()+"/v1/sweep", "application/json", strings.NewReader("{}")); err == nil {
		t.Fatal("dropped request returned a response")
	}
	if c := d.Counts(); c.Drops != 1 {
		t.Fatalf("drop not counted: %+v", c)
	}
}

// TestTruncateMidRow: the stream dies at the seeded byte offset — inside
// a row, with a partial line delivered — and the client sees a transport
// error, not a clean EOF.
func TestTruncateMidRow(t *testing.T) {
	p := start(t, Config{Seed: 9, Target: upstream(t).URL, TruncateEvery: 1})
	resp, err := http.Post(p.URL()+"/v1/sweep", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, rerr := io.ReadAll(resp.Body)
	if rerr == nil {
		t.Fatalf("truncated stream ended cleanly with %d bytes", len(body))
	}
	if len(body) == 0 || len(body) >= len(streamBody) {
		t.Fatalf("truncation delivered %d of %d bytes, want a strict mid-stream cut", len(body), len(streamBody))
	}
	// The seeded offsets (50..149) always land inside a row, so the last
	// delivered line must be a torn fragment.
	lines := bytes.Split(body, []byte{'\n'})
	if tail := lines[len(lines)-1]; len(tail) == 0 {
		t.Fatalf("cut landed exactly on a row boundary: %q", body)
	}
	if c := p.Counts(); c.Truncates != 1 {
		t.Fatalf("truncate not counted: %+v", c)
	}
}

// TestStallFreezesThenResumes: a stalled stream delivers nothing for the
// configured pause, then completes intact — slow, not broken.
func TestStallFreezesThenResumes(t *testing.T) {
	p := start(t, Config{Seed: 3, Target: upstream(t).URL, StallEvery: 1, Stall: 150 * time.Millisecond})
	begin := time.Now()
	resp, err := http.Post(p.URL()+"/v1/sweep", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	body, rerr := io.ReadAll(r)
	if rerr != nil {
		t.Fatalf("stalled stream broke: %v", rerr)
	}
	if string(body) != streamBody {
		t.Fatalf("stall corrupted the stream: %q", body)
	}
	if elapsed := time.Since(begin); elapsed < 150*time.Millisecond {
		t.Fatalf("stream finished in %v, before the %v stall elapsed", elapsed, 150*time.Millisecond)
	}
	if c := p.Counts(); c.Stalls != 1 {
		t.Fatalf("stall not counted: %+v", c)
	}
}

// TestServerTimeouts: the proxy's http.Server bounds header reads and
// idle keep-alive connections with gbd-server's values, and sets no
// whole-request read or write deadline, which would cut stalled streams.
func TestServerTimeouts(t *testing.T) {
	p := start(t, Config{Target: "http://127.0.0.1:1"})
	if p.srv.ReadHeaderTimeout != 10*time.Second || p.srv.IdleTimeout != 2*time.Minute {
		t.Errorf("ReadHeaderTimeout = %v, IdleTimeout = %v; want 10s and 2m", p.srv.ReadHeaderTimeout, p.srv.IdleTimeout)
	}
	if p.srv.ReadTimeout != 0 || p.srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout = %v, WriteTimeout = %v; want both unset", p.srv.ReadTimeout, p.srv.WriteTimeout)
	}
}
