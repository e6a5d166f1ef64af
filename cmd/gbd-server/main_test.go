package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/groupdetect/gbd/internal/obs"
)

// runMainEnv re-executes this test binary as the gbd-server CLI: the
// value is the US-separated (0x1f) argument list for run(). The SIGINT
// drain test needs a real subprocess so the signal exercises the
// production handler path.
const runMainEnv = "GBD_SERVER_RUN_MAIN"

func TestMain(m *testing.M) {
	if args := os.Getenv(runMainEnv); args != "" {
		if err := run(strings.Split(args, "\x1f"), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "gbd-server:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-unknown"},
		{"-point-retries", "-1"},
		{"-retries", "-1"}, // the alias validates identically
		{"-addr", "not-an-address"},
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

// TestSigintDrainsMidStream is the end-to-end serving contract: SIGINT
// delivered while an NDJSON sweep is mid-stream lets the stream finish —
// every row present exactly once — and the process exits 0 with an
// "interrupted" manifest.
func TestSigintDrainsMidStream(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and interrupts a server subprocess")
	}
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signal semantics required")
	}
	dir := t.TempDir()
	manifest := filepath.Join(dir, "manifest.json")
	childArgs := []string{"-addr", "127.0.0.1:0", "-metrics-out", manifest}

	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), runMainEnv+"="+strings.Join(childArgs, "\x1f"))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The first stdout line carries the bound address.
	outReader := bufio.NewReader(stdout)
	line, err := outReader.ReadString('\n')
	if err != nil {
		t.Fatalf("no listen line: %v; stderr:\n%s", err, stderr.String())
	}
	idx := strings.Index(line, "http://")
	if idx < 0 {
		t.Fatalf("listen line has no address: %q", line)
	}
	base := strings.TrimSpace(line[idx:])

	// Sanity before the interrupt: liveness and one analysis.
	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	hresp.Body.Close()
	aresp, err := http.Post(base+"/v1/analyze", "application/json",
		strings.NewReader(`{"scenario":{}}`))
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	var ana struct {
		DetectionProb float64 `json:"detection_prob"`
	}
	if err := json.NewDecoder(aresp.Body).Decode(&ana); err != nil {
		t.Fatal(err)
	}
	aresp.Body.Close()
	if ana.DetectionProb < 0.78 || ana.DetectionProb > 0.781 {
		t.Errorf("detection_prob = %v, want the paper scenario's 0.780129", ana.DetectionProb)
	}

	// Open a slow sweep stream and read its first row, so the SIGINT below
	// provably lands mid-stream.
	const points = 6
	sresp, err := http.Post(base+"/v1/sweep", "application/json",
		strings.NewReader(`{"scenario":{},"axis":"n","values":[60,80,100,120,140,160],"trials":5000,"seed":5}`))
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	defer sresp.Body.Close()
	stream := bufio.NewReader(sresp.Body)
	first, err := stream.ReadString('\n')
	if err != nil {
		t.Fatalf("first sweep row: %v", err)
	}

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}

	// The drain contract: the already-open stream completes normally.
	rest, err := io.ReadAll(stream)
	if err != nil {
		t.Fatalf("stream broken after SIGINT: %v", err)
	}
	seen := make(map[int]bool)
	for i, lineText := range strings.Split(strings.TrimSpace(first+string(rest)), "\n") {
		var row struct {
			Index int    `json:"index"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(lineText), &row); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", lineText, err)
		}
		if row.Index != i || seen[row.Index] {
			t.Errorf("row %d: index %d (duplicate=%v) — drain reordered or duplicated rows", i, row.Index, seen[row.Index])
		}
		seen[row.Index] = true
		if row.Error != "" {
			t.Errorf("row %d carries error %q — drain must finish in-flight points", i, row.Error)
		}
	}
	if len(seen) != points {
		t.Errorf("stream delivered %d rows, want %d (no dropped rows on drain)", len(seen), points)
	}

	// Clean exit 0 and the drained marker on stdout.
	restOut, _ := io.ReadAll(outReader)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("drained server exited non-zero: %v; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(string(restOut), "drained cleanly") {
		t.Errorf("stdout missing drain marker:\n%s", restOut)
	}

	// The manifest records the interruption honestly even though the exit
	// was clean.
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateManifestJSON(data); err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Status != obs.StatusInterrupted {
		t.Errorf("manifest status = %q, want %q", m.Status, obs.StatusInterrupted)
	}
	if m.Binary != "gbd-server" {
		t.Errorf("manifest binary = %q", m.Binary)
	}
}

// TestServerServesAndStops covers the plain lifecycle without signals:
// the server comes up on an ephemeral port, serves, and SIGTERM stops it
// cleanly too (SignalContext handles both signals).
func TestServerServesAndStops(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a server subprocess")
	}
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signal semantics required")
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), runMainEnv+"="+strings.Join([]string{"-addr", "127.0.0.1:0"}, "\x1f"))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("no listen line: %v; stderr:\n%s", err, stderr.String())
	}
	base := strings.TrimSpace(line[strings.Index(line, "http://"):])
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("metrics: status %d", resp.StatusCode)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("SIGTERM exit: %v; stderr:\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not stop on SIGTERM")
	}
}

// TestHTTPServerTimeouts: the http.Server run serves bounds header reads
// and idle keep-alive connections, and sets no whole-request read or
// write deadline, which would cut long sweep streams.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, IdleTimeout = %v; want both set", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Errorf("ReadTimeout = %v, WriteTimeout = %v; want both unset", hs.ReadTimeout, hs.WriteTimeout)
	}
}
