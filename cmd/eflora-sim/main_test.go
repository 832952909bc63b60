package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
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

func TestSimBasic(t *testing.T) {
	out := capture(t, []string{"-devices", "50", "-gateways", "2", "-packets", "15"})
	for _, want := range []string{"PRR:", "EE:", "Lifetime", "delivered"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSimConfirmed(t *testing.T) {
	out := capture(t, []string{"-devices", "40", "-gateways", "1", "-packets", "10", "-confirmed"})
	if !strings.Contains(out, "retransmissions") {
		t.Errorf("confirmed output missing retransmissions:\n%s", out)
	}
}

// TestSimConfirmedSummaryCountsPackets requires -confirmed's summary line
// to count packets and transmissions apart, with prr dividing the
// deliveries by the packets.
func TestSimConfirmedSummaryCountsPackets(t *testing.T) {
	out := capture(t, []string{"-devices", "40", "-gateways", "1", "-packets", "10", "-confirmed"})
	m := regexp.MustCompile(`packets=(\d+) transmissions=(\d+) delivered=(\d+) prr=(\S+) `).FindStringSubmatch(out)
	if m == nil || strings.Contains(out, "attempts=") {
		t.Fatalf("confirmed summary does not count packets and transmissions apart:\n%s", out)
	}
	packets, _ := strconv.Atoi(m[1])
	delivered, _ := strconv.Atoi(m[3])
	if want := fmt.Sprintf("%.3f", float64(delivered)/float64(packets)); m[4] != want {
		t.Errorf("prr=%s, want delivered/packets = %s:\n%s", m[4], want, out)
	}
}

func TestSimTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	out := capture(t, []string{"-devices", "30", "-gateways", "1", "-packets", "10", "-trace", path})
	if !strings.Contains(out, "packet records") {
		t.Errorf("missing trace confirmation:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "device,start_s,outcome,gateway") {
		t.Error("trace CSV missing header")
	}
}

func TestSimScenarioInput(t *testing.T) {
	// Round-trip through the eflora tool's scenario writer.
	scenarioPath := filepath.Join(t.TempDir(), "net.json")
	eflora := filepath.Join(t.TempDir(), "eflora-bin")
	build := exec.Command("go", "build", "-o", eflora, "eflora/cmd/eflora")
	if outb, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building eflora: %v\n%s", err, outb)
	}
	gen := exec.Command(eflora, "-devices", "25", "-gateways", "1", "-out", scenarioPath)
	if outb, err := gen.CombinedOutput(); err != nil {
		t.Fatalf("generating scenario: %v\n%s", err, outb)
	}
	out := capture(t, []string{"-in", scenarioPath, "-packets", "10"})
	if !strings.Contains(out, "25 devices / 1 gateways") {
		t.Errorf("scenario input not honored:\n%s", out)
	}
}

func TestSimRejectsMissingScenario(t *testing.T) {
	f, _ := os.CreateTemp(t.TempDir(), "out")
	defer f.Close()
	if err := run([]string{"-in", "/does/not/exist.json"}, f); err == nil {
		t.Error("missing scenario accepted")
	}
}

// TestSimRejectsOutOfRangeFlags pins that a value the simulator would
// replace by its default, or that would reach the model as a non-finite
// number, fails with an error naming the flag before any work is done
// instead of running something else.
func TestSimRejectsOutOfRangeFlags(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-devices", "0"},
		{"-devices", "-5"},
		{"-gateways", "0"},
		{"-packets", "0"},
		{"-packets", "-3"},
		{"-radius", "-5"},
		{"-radius", "0"},
		{"-radius", "NaN"},
		{"-radius", "+Inf"},
		{"-battery", "0"},
		{"-battery", "-1"},
		{"-battery", "NaN"},
		{"-capture-db", "NaN"},
		{"-capture-db", "-Inf"},
	} {
		f, err := os.CreateTemp(t.TempDir(), "out")
		if err != nil {
			t.Fatal(err)
		}
		err = run([]string{"-devices", "20", "-gateways", "1", "-packets", "5", tc.flag, tc.value}, f)
		f.Close()
		if err == nil || !strings.Contains(err.Error(), tc.flag+" ") {
			t.Errorf("%s %s: err = %v, want an error naming %s", tc.flag, tc.value, err, tc.flag)
		}
	}
}
