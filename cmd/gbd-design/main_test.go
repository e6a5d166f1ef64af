package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	gbd "github.com/groupdetect/gbd"
)

func TestRunDesignWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("design workflow runs simulations; skipped in -short mode")
	}
	if err := run([]string{"-target", "0.7", "-n-max", "400"}); err != nil {
		t.Errorf("design run: %v", err)
	}
}

// TestSystemLinePins pins the end-to-end confirmation line: the gated,
// false-alarm system campaign at 1000 trials, on the default radios and on
// sparse, slow ones that partition the network and deliver reports late.
func TestSystemLinePins(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "system:   end-to-end P[detect] = 0.9110 (delivered 100.0% of reports, gated rule)\n"},
		{[]string{"-comm", "3000", "-hop", "40s"}, "system:   end-to-end P[detect] = 0.5710 (delivered 58.4% of reports, gated rule)\n"},
	} {
		out := captureStdout(t, func() error { return run(tc.args) })
		if !strings.Contains(out, tc.want) {
			t.Errorf("run(%v) output lacks %q:\n%s", tc.args, tc.want, out)
		}
	}
}

// captureStdout returns what f prints to os.Stdout.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	read := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		read <- string(b)
	}()
	ferr := f()
	os.Stdout = stdout
	w.Close()
	out := <-read
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return out
}

func TestRunDesignErrors(t *testing.T) {
	cases := [][]string{
		{"-target", "0.999999", "-n-max", "60"}, // unreachable requirement
		{"-rs", "-1"},                           // invalid scenario
		{"-nonsense"},                           // bad flag
		{"-budget", "2"},                        // invalid budget
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestRunPlace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "layout.json")
	args := []string{
		"-place", "-place-n", "20", "-grid", "8x8",
		"-place-trials", "150", "-seed", "1",
		"-min-gain", "0", "-place-out", out,
	}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res gbd.PlacementResult
	if err := json.Unmarshal(blob, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Sensors) != 20 {
		t.Errorf("layout has %d sensors, want 20", len(res.Sensors))
	}
	if res.VsUniform.PlacedProb < res.VsUniform.UniformProb {
		t.Errorf("placed %v < uniform %v", res.VsUniform.PlacedProb, res.VsUniform.UniformProb)
	}
	if res.KMinExact < 1 {
		t.Errorf("k_min_exact = %d", res.KMinExact)
	}
}

func TestRunPlaceClasses(t *testing.T) {
	args := []string{
		"-place", "-classes", "6:1000:0.9,3:2000:0.7",
		"-grid", "8x8", "-place-trials", "100", "-seed", "1",
	}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
}

func TestRunPlaceSweepCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("placement sweep runs simulations; skipped in -short mode")
	}
	ckpt := filepath.Join(t.TempDir(), "place.ckpt")
	args := []string{
		"-place", "-sweep", "-quick",
		"-place-trials", "100", "-seed", "7", "-checkpoint", ckpt,
	}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	if err := run(append(args, "-resume")); err != nil {
		t.Fatalf("resumed run(%v): %v", args, err)
	}
}

func TestRunPlaceErrors(t *testing.T) {
	cases := [][]string{
		{"-place", "-grid", "nonsense"},                      // bad grid spec
		{"-place", "-grid", "0x8"},                           // non-positive grid
		{"-place", "-classes", "6:1000"},                     // malformed class
		{"-place", "-classes", "x:1000:0.9"},                 // non-numeric count
		{"-place", "-rng", "quantum"},                        // unknown rng scheme
		{"-place", "-sweep", "-resume"},                      // -resume without -checkpoint
		{"-place", "-place-trials", "100", "-min-gain", "2"}, // unreachable gain gate
	}
	for _, args := range cases {
		args = append(args, "-place-n", "8", "-place-trials", "50")
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}
