// Command perfbench is eflora's end-to-end benchmark. Each run drives one
// closed-loop workload in its own process against the program's public
// packages, checks every operation's output, and prints the end-to-end
// metrics by name with their units and sample counts. With --trace 1 the
// same calls are wrapped in spans and the run prints the per-layer
// metrics instead. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 103, "failed": 0, "metrics": {...}}
//
// Workloads (see README.md for why each was chosen):
//
//	alloc-fig10  one EF-LoRa allocation of a fresh Fig. 10 deployment at alloc.Options{}
//	sim-paper    one sim.Run of the Fig. 4 regime with the default sim.Config and a reused Scratch
//	nsd-live     one PUSH_DATA datagram through the daemon's reader path
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload alloc-fig10 --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// workDir, relative to the checkout root the benchmark runs from, holds
// WAL directories and span files (run.sh builds the binary there too).
var workDir = filepath.Join(".bench_build", "perfbench")

// workloadNames lists the workloads in the order --workload all runs them.
var workloadNames = []string{"alloc-fig10", "sim-paper", "nsd-live"}

// e2eMetrics are the gated end-to-end metrics every untraced run prints.
// They are CPU, allocation and memory measures: on the two-vCPU recording
// host the hypervisor stole 2-38% of the machine's CPU from run to run,
// which moved wall-clock latency and throughput of the same code by up to
// 55% (see wallMetrics).
var e2eMetrics = []metricDef{
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// wallMetrics are the wall-clock end-to-end metrics. Every run prints
// them with their sample counts; they are not gated (see e2eMetrics).
var wallMetrics = []metricDef{
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
}

// layerMetrics are the per-layer metrics every traced run prints. A layer
// a workload does not execute reads 0 with a sample count of 0.
var layerMetrics = []metricDef{
	{"alloc.candidates_tried", "count"},
	{"alloc.improvements", "count"},
	{"alloc.passes", "count"},
	{"alloc.commit_ratio", "ratio"},
	{"alloc.ns_per_candidate", "ns"},
	{"alloc.cpu_per_wall", "ratio"},
	{"alloc.allocs_per_op", "count"},
	{"alloc.final_min_ee", "bits/J"},
	{"model.gains_ms", "ms"},
	{"model.evaluator_build_ms", "ms"},
	{"model.min_ee_if_ns", "ns"},
	{"model.set_device_us", "us"},
	{"sim.transmissions", "count"},
	{"sim.receptions", "count"},
	{"sim.delivered", "count"},
	{"sim.collision_losses", "count"},
	{"sim.capacity_drops", "count"},
	{"sim.sensitivity_misses", "count"},
	{"sim.prr", "ratio"},
	{"sim.ns_per_reception", "ns"},
	{"sim.cpu_per_wall", "ratio"},
	{"sim.allocs_per_op", "count"},
	{"sim.self_ms", "ms"},
	{"rng.fading_ns_per_draw", "ns"},
	{"engine.batch_ns_per_rx", "ns"},
	{"ingest.decode_us", "us"},
	{"ingest.decode_allocs", "count"},
	{"ingest.observe_us", "us"},
	{"ingest.payload_us", "us"},
	{"downlink.observe_uplink_us", "us"},
	{"ingest.dispatch_us", "us"},
	{"ingest.dispatch_blocked_ratio", "ratio"},
	{"ingest.queue_p50_us", "us"},
	{"lorawan.decode_us", "us"},
	{"ingest.tracker_observe_us", "us"},
	{"netserver.dedup_ratio", "ratio"},
	{"netserver.rejected", "count"},
	{"ingest.realloc_step_ms", "ms"},
	{"ingest.realloc_moves", "count"},
	{"statestore.append_sync_us", "us"},
	{"downlink.enqueue_us", "us"},
	{"downlink.frames_emitted", "count"},
	{"ingest.latency_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"host.steal_pct", "%"},
}

type metricDef struct{ name, unit string }

// measured is one metric value with the number of samples behind it.
type measured struct {
	value float64
	n     int
}

// env is what a workload run receives from the command line.
type env struct {
	seed    uint64
	seconds float64
	trace   bool
	// workDir holds WAL directories and the span file.
	workDir string
}

// result is what a workload run reports.
type result struct {
	attempted, failed int
	// failures describes the first few failed checks.
	failures []string
	e2e      map[string]measured
	wall     map[string]measured
	layers   map[string]measured
	// notes are printed before the metrics: generator time, tails and
	// other diagnostics that are not gated.
	notes []string
}

func newResult() *result {
	return &result{e2e: map[string]measured{}, wall: map[string]measured{}, layers: map[string]measured{}}
}

// fail records one failed operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type workloadFunc func(e *env, r *result) error

func workloadFor(name string) (workloadFunc, bool) {
	switch name {
	case "alloc-fig10":
		return func(e *env, r *result) error { return runAllocFig10(e, allocFig10Size, r) }, true
	case "sim-paper":
		return func(e *env, r *result) error { return runSimPaper(e, simPaperSize, r) }, true
	case "nsd-live":
		return func(e *env, r *result) error { return runNSDLive(e, nsdLiveSize, r) }, true
	}
	return nil, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 wraps the calls in spans and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *workload == "all" {
		// Each workload in its own process, so none inherits another's
		// heap, caches or peak resident set.
		self, err := os.Executable()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		code := 0
		for _, name := range workloadNames {
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(*seed, 10),
				"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", strconv.Itoa(*trace))
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
				code = 1
			}
		}
		return code
	}
	wf, ok := workloadFor(*workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s or all)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	e := &env{seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: workDir}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *trace)
	r := newResult()
	if err := wf(e, r); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := writeReport(stdout, e, r); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// writeReport prints the diagnostics, every metric with its unit and
// sample count, and the final JSON line.
func writeReport(w io.Writer, e *env, r *result) error {
	host := hostInfo(e.workDir)
	fmt.Fprintf(w, "host: %s\n", host)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, d := range wallMetrics {
		m := r.wall[d.name]
		fmt.Fprintf(w, "wall %s = %.6g %s (n=%d, not gated)\n", d.name, m.value, d.unit, m.n)
	}
	defs, vals := e2eMetrics, r.e2e
	if e.trace {
		defs, vals = layerMetrics, r.layers
	}
	out := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		m, ok := vals[d.name]
		if !ok && !e.trace {
			return fmt.Errorf("workload did not measure %s", d.name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not finite", d.name)
		}
		suffix := ""
		if !ok || m.n == 0 {
			suffix = ", not on this workload's path"
		}
		fmt.Fprintf(w, "metric %s = %.6g %s (n=%d%s)\n", d.name, m.value, d.unit, m.n, suffix)
		out[d.name] = jsonMetric{Value: m.value, Unit: d.unit}
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	fmt.Fprintf(w, "ops: attempted=%d failed=%d\n", r.attempted, r.failed)
	if r.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(jsonResult{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// phaseDone reports whether a timed phase that has run for elapsed has
// used up its budget.
func phaseDone(e *env, elapsed time.Duration) bool {
	return elapsed.Seconds() >= e.seconds
}
