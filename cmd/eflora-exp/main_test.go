package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

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

func TestExpList(t *testing.T) {
	out := capture(t, []string{"-list"})
	for _, want := range []string{"table1", "fig4", "fig10", "ablation-order"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q:\n%s", want, out)
		}
	}
}

func TestExpSingleExperiment(t *testing.T) {
	out := capture(t, []string{"-exp", "table1"})
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "39") {
		t.Errorf("table1 output malformed:\n%s", out)
	}
}

func TestExpUnknownID(t *testing.T) {
	f, _ := os.CreateTemp(t.TempDir(), "out")
	defer f.Close()
	if err := run([]string{"-exp", "fig99"}, f); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestExpRejectsOutOfRangeFlags pins that a value exp.Config would
// replace by its default, or that would reach the model as a non-finite
// device count or duty cycle, fails with an error naming the flag instead
// of running something else.
func TestExpRejectsOutOfRangeFlags(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-scale", "+Inf"},
		{"-scale", "-Inf"},
		{"-scale", "NaN"},
		{"-scale", "0"},
		{"-scale", "-1"},
		{"-trials", "0"},
		{"-trials", "-2"},
		{"-packets", "0"},
		{"-packets", "-1"},
	} {
		f, err := os.CreateTemp(t.TempDir(), "out")
		if err != nil {
			t.Fatal(err)
		}
		err = run([]string{"-exp", "fig6", tc.flag, tc.value}, f)
		f.Close()
		if err == nil || !strings.Contains(err.Error(), tc.flag+" ") {
			t.Errorf("%s %s: err = %v, want an error naming %s", tc.flag, tc.value, err, tc.flag)
		}
	}
}

func TestExpTinyFigure(t *testing.T) {
	out := capture(t, []string{"-exp", "fig10", "-scale", "0.02", "-trials", "1", "-packets", "10"})
	if !strings.Contains(out, "Convergence time") {
		t.Errorf("fig10 output malformed:\n%s", out)
	}
}

func TestExpJSONOutput(t *testing.T) {
	out := capture(t, []string{"-exp", "table4", "-json"})
	var parsed map[string]map[string]float64
	if err := json.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if parsed["table4"]["snr_sf12"] != -20 {
		t.Errorf("JSON values wrong: %v", parsed)
	}
}
