package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs the CLI with args and returns its stdout text.
func capture(t *testing.T, args []string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := run(args, f); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestRunTextOutput(t *testing.T) {
	out := capture(t, []string{"-devices", "60", "-gateways", "2", "-seed", "3"})
	for _, want := range []string{"min EE", "Jain", "Spreading factor distribution", "SF7"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	out := capture(t, []string{"-devices", "40", "-gateways", "1", "-json"})
	var jo jsonOutput
	if err := json.Unmarshal([]byte(out), &jo); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if jo.Devices != 40 || len(jo.SF) != 40 || len(jo.TPdBm) != 40 {
		t.Errorf("JSON payload malformed: %+v", jo)
	}
	if jo.MinEE < 0 || jo.Jain <= 0 {
		t.Errorf("JSON stats: %+v", jo)
	}
}

func TestRunWritesScenario(t *testing.T) {
	path := filepath.Join(t.TempDir(), "net.json")
	out := capture(t, []string{"-devices", "30", "-gateways", "1", "-out", path})
	if !strings.Contains(out, "wrote scenario") {
		t.Errorf("missing confirmation:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"allocation\"") {
		t.Error("scenario file missing allocation")
	}
}

func TestRunRejectsUnknownAllocator(t *testing.T) {
	f, _ := os.CreateTemp(t.TempDir(), "out")
	defer f.Close()
	if err := run([]string{"-devices", "10", "-allocator", "nope"}, f); err == nil {
		t.Error("unknown allocator accepted")
	}
}

func TestRunEachAllocator(t *testing.T) {
	for _, al := range []string{"legacy", "rslora", "adr", "eflora-fixed"} {
		out := capture(t, []string{"-devices", "40", "-gateways", "1", "-allocator", al})
		if !strings.Contains(out, "min EE") {
			t.Errorf("%s: malformed output", al)
		}
	}
}

// TestEfloraRejectsOutOfRangeFlags pins that a value the allocator or
// the deployment would replace by its default, or that would reach the
// model as a non-finite number, fails with an error naming the flag
// instead of running something else.
func TestEfloraRejectsOutOfRangeFlags(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-devices", "0"},
		{"-devices", "-1"},
		{"-gateways", "0"},
		{"-radius", "-5"},
		{"-radius", "0"},
		{"-radius", "NaN"},
		{"-radius", "-Inf"},
		{"-delta", "0"},
		{"-delta", "-0.5"},
		{"-delta", "NaN"},
		{"-delta", "+Inf"},
	} {
		f, err := os.CreateTemp(t.TempDir(), "out")
		if err != nil {
			t.Fatal(err)
		}
		err = run([]string{"-devices", "20", "-gateways", "1", tc.flag, tc.value}, f)
		f.Close()
		if err == nil || !strings.Contains(err.Error(), tc.flag+" ") {
			t.Errorf("%s %s: err = %v, want an error naming %s", tc.flag, tc.value, err, tc.flag)
		}
	}
}
