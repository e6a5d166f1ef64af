package main

import (
	"path/filepath"
	"testing"
)

func TestRunMethods(t *testing.T) {
	cases := [][]string{
		{"-n", "60"},
		{"-n", "60", "-method", "ms-matrix", "-gh", "3", "-g", "3"},
		{"-n", "60", "-method", "s", "-g", "4"},
		{"-n", "60", "-method", "s-literal", "-g", "2"},
		{"-n", "60", "-method", "single"},
		{"-n", "60", "-raw", "-verbose"},
		{"-n", "60", "-h-nodes", "2"},
		{"-n", "60", "-v", "4"},
		{"-n", "60", "-m", "2"}, // M <= ms: small-window evaluator
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-n", "-5"},                           // invalid params
		{"-method", "bogus"},                   // unknown method
		{"-m", "2", "-method", "s", "-g", "4"}, // S-approach needs M > ms
		{"-accuracy", "1.5"},                   // invalid accuracy target
		{"-badflag"},                           // flag parse error
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestRunConfigFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scenario.json")
	// Save a scenario, then load it back.
	if err := run([]string{"-n", "60", "-save-config", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", path}); err != nil {
		t.Errorf("run with config: %v", err)
	}
	if err := run([]string{"-config", filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing config should fail")
	}
	if err := run([]string{"-n", "60", "-save-config", filepath.Join(dir, "no", "dir", "x.json")}); err == nil {
		t.Error("unwritable save path should fail")
	}
}
