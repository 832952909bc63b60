package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eflora/internal/alloc"
	"eflora/internal/core"
	"eflora/internal/scenario"
)

// writeScenario builds a small allocated scenario on disk.
func writeScenario(t *testing.T) string {
	t.Helper()
	netw, err := core.Build(core.Scenario{Devices: 30, Gateways: 2, RadiusM: 2500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a, err := netw.Allocate("legacy", alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "net.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := scenario.FromNetwork(netw.Net, &a, "test").Write(f); err != nil {
		t.Fatal(err)
	}
	return path
}

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

func TestExplainBottleneckByDefault(t *testing.T) {
	path := writeScenario(t)
	out := capture(t, []string{"-in", path})
	for _, want := range []string{"network min EE", "PRR", "gw 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestExplainSpecificDevices(t *testing.T) {
	path := writeScenario(t)
	out := capture(t, []string{"-in", path, "-device", "0", "-device", "5"})
	if !strings.Contains(out, "device 0") || !strings.Contains(out, "device 5") {
		t.Errorf("requested devices missing:\n%s", out)
	}
}

func TestExplainErrors(t *testing.T) {
	f, _ := os.CreateTemp(t.TempDir(), "out")
	defer f.Close()
	if err := run(nil, f); err == nil {
		t.Error("missing -in accepted")
	}
	path := writeScenario(t)
	if err := run([]string{"-in", path, "-device", "999"}, f); err == nil {
		t.Error("out-of-range device accepted")
	}
	for _, junk := range []string{"7.5", "12abc"} {
		if err := run([]string{"-in", path, "-device", junk}, f); err == nil {
			t.Errorf("-device %s accepted", junk)
		}
	}
}
