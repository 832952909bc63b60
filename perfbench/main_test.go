package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// tinyWorkloads runs each workload at a size that finishes in seconds.
var tinyWorkloads = map[string]workloadFunc{
	"alloc-fig10": func(e *env, r *result) error {
		return runAllocFig10(e, allocSize{devices: 12, setups: 2}, r)
	},
	"sim-paper": func(e *env, r *result) error {
		return runSimPaper(e, simSize{devices: 60, gateways: 2, packets: 5, duty: 0.05, setups: 2}, r)
	},
	"nsd-live": func(e *env, r *result) error {
		return runNSDLive(e, nsdSize{devices: 60, gateways: 3, packets: 10, driftDevices: 3, driftSNRdB: 10}, r)
	},
}

// runTiny runs one tiny workload and returns its printed report.
func runTiny(t *testing.T, name string, trace bool) (*result, string) {
	t.Helper()
	e := &env{seed: 7, seconds: 0.2, trace: trace, workDir: t.TempDir()}
	r := newResult()
	if err := tinyWorkloads[name](e, r); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var out bytes.Buffer
	if err := writeReport(&out, e, r); err != nil {
		t.Fatalf("%s: report: %v", name, err)
	}
	return r, out.String()
}

// checkReport verifies a report prints every metric of defs by name with
// its unit and sample count, and ends in the JSON result line carrying
// exactly those metrics.
func checkReport(t *testing.T, name, out string, defs []metricDef) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for _, d := range defs {
		prefix := "metric " + d.name + " = "
		found := false
		for _, l := range lines {
			if strings.HasPrefix(l, prefix) && strings.Contains(l, " "+d.unit+" (n=") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: no %q line with unit %s in\n%s", name, prefix, d.unit, out)
		}
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", name, err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("%s: result keys %v", name, res)
	}
	var metrics map[string]jsonMetric
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(defs) {
		t.Errorf("%s: %d metrics in the result line, want %d", name, len(metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("%s: result line metric %s = %+v, want unit %s", name, d.name, m, d.unit)
		}
	}
}

func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				r, out := runTiny(t, name, trace)
				if r.failed != 0 || r.attempted == 0 {
					t.Fatalf("attempted %d, failed %d: %v\n%s", r.attempted, r.failed, r.failures, out)
				}
				defs := e2eMetrics
				if trace {
					defs = layerMetrics
				}
				checkReport(t, name, out, defs)
				for _, d := range wallMetrics {
					if !strings.Contains(out, "wall "+d.name+" = ") {
						t.Errorf("no wall-clock %s line in\n%s", d.name, out)
					}
					if m := r.wall[d.name]; m.value <= 0 || m.n == 0 {
						t.Errorf("%s = %v (n=%d), want a positive measurement", d.name, m.value, m.n)
					}
				}
				if !trace {
					for _, d := range e2eMetrics {
						if m := r.e2e[d.name]; m.value <= 0 || m.n == 0 {
							t.Errorf("%s = %v (n=%d), want a positive measurement", d.name, m.value, m.n)
						}
					}
				}
			})
		}
	}
}

// TestReaderSpansCoverDatagram checks from outside the program that the
// traced reader path's layer timings add up to the datagram's time
// within minReaderCoverage (the run fails its own check otherwise).
func TestReaderSpansCoverDatagram(t *testing.T) {
	r, out := runTiny(t, "nsd-live", true)
	if r.failed != 0 {
		t.Fatalf("failed checks: %v", r.failures)
	}
	if !strings.Contains(out, "reader-path child spans cover") {
		t.Fatalf("no coverage line in\n%s", out)
	}
	for _, name := range []string{"ingest.decode_us", "ingest.observe_us", "ingest.payload_us", "downlink.observe_uplink_us", "ingest.dispatch_us"} {
		if m := r.layers[name]; m.value <= 0 || m.n == 0 {
			t.Errorf("%s = %v (n=%d), want a positive measurement", name, m.value, m.n)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sim-paper", "--trace", "2"},
		{"--workload", "sim-paper", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) = %d, want 2 (stderr %q)", args, code, errOut.String())
		}
	}
}
