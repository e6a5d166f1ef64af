package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one call across a layer boundary, recorded by the benchmark
// around its own calls into the program: a client request, a replica's
// handler, a detect call, a Monte Carlo job, a placement solve.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Replica is the serving replica for client and serve spans.
	Replica int   `json:"replica"`
	Start   int64 `json:"start_ns"`
	End     int64 `json:"end_ns"`
	// Outcome is the serve layer's cache classification (hit, miss,
	// forward, error) taken from X-Cache.
	Outcome string `json:"outcome,omitempty"`
	// Peer marks a handler span that served a peer-forwarded request.
	Peer  bool  `json:"peer,omitempty"`
	Bytes int64 `json:"bytes,omitempty"`
	// Count, CPU and Allocs are the work counts taken at the span's
	// boundaries: trials run, process CPU nanoseconds, heap objects.
	Count  int64 `json:"count,omitempty"`
	CPU    int64 `json:"cpu_ns,omitempty"`
	Allocs int64 `json:"allocs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the timed runs run untraced.
type recorder struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	nextID int64
}

// firstAutoID numbers spans recorded without an id, above any request id.
const firstAutoID = 1 << 40

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16), nextID: firstAutoID}
}

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.t0))
}

// reset drops the spans recorded so far.
func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if s.ID == 0 {
		s.ID = r.nextID
		r.nextID++
	}
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// named returns the recorded spans with the given name.
func (r *recorder) named(name string) []span {
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as JSON lines, headed by the host line.
func (r *recorder) write(path, host string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]string{"host": host}); err != nil {
		f.Close()
		return err
	}
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchIDHeader carries the client's request id to the edge handler span.
// The serve layer ignores it, and does not copy it onto peer forwards.
const benchIDHeader = "X-Bench-Id"

// peerHeader is the serve layer's marker on peer-forwarded requests.
const peerHeader = "X-Gbd-Peer"

// tracedHandler wraps a replica's handler with a serve span per request.
func tracedHandler(rec *recorder, replica int, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := rec.now()
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		id, _ := strconv.ParseInt(r.Header.Get(benchIDHeader), 10, 64)
		rec.add(span{
			Name: "serve", Parent: id, Replica: replica, Start: start, End: rec.now(),
			Outcome: outcome(w.Header().Get("X-Cache")), Peer: r.Header.Get(peerHeader) != "",
			Bytes: cw.n,
		})
	})
}

// countingWriter counts body bytes and keeps the Flusher the batch
// handler streams through.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// outcome classifies an X-Cache value: "hit", "miss"/"dedup",
// "forward-<peer>", or a batch aggregate "hit=H,miss=M,forward=F,error=E"
// (any error, then any miss, then any forward decides). Responses without
// the header are errors.
func outcome(xcache string) string {
	switch {
	case xcache == "hit":
		return "hit"
	case xcache == "miss" || xcache == "dedup":
		return "miss"
	case strings.HasPrefix(xcache, "forward-"):
		return "forward"
	case strings.HasPrefix(xcache, "hit="):
		var h, m, f, e int
		if _, err := fmt.Sscanf(xcache, "hit=%d,miss=%d,forward=%d,error=%d", &h, &m, &f, &e); err != nil || e > 0 {
			return "error"
		}
		switch {
		case m > 0:
			return "miss"
		case f > 0:
			return "forward"
		}
		return "hit"
	}
	return "error"
}
