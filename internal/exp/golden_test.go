package exp

import (
	"flag"
	"fmt"
	"maps"
	"runtime"
	"strings"
	"testing"

	"eflora/internal/golden"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenExperiments pins small-scale experiment outputs to digests in
// testdata/, floats at bit precision. table1 and fig5 pin their full
// rendered text and every headline value; every experiment pins its
// headline values minus the host-timing ones. A hot-path refactor that
// changes results (not just speed) anywhere in the build → allocate →
// simulate → aggregate pipeline fails here, at GOMAXPROCS 1 and at the
// default alike (the figure's job grid run in order and fanned out).
func TestGoldenExperiments(t *testing.T) {
	cfg := Config{Scale: 0.02, Trials: 2, PacketsPerDevice: 10, Seed: 3}
	results := make(map[string][2]*Result)
	for _, id := range IDs() {
		results[id] = [2]*Result{runAtProcs(t, id, cfg, 1), runAtProcs(t, id, cfg, 0)}
	}
	var out strings.Builder
	// line records the digest of experiment id's results under label;
	// the GOMAXPROCS 1 and default runs must agree.
	line := func(label, id string, digest func(*Result) string) {
		d1, d0 := digest(results[id][0]), digest(results[id][1])
		if d1 != d0 {
			t.Errorf("%s: GOMAXPROCS 1 digest %s != default digest %s", label, d1, d0)
		}
		fmt.Fprintf(&out, "%s %s\n", label, d1)
	}
	for _, id := range []string{"table1", "fig5"} {
		line(id, id, func(res *Result) string { return golden.Digest(res.Text, golden.Map(res.Values)) })
	}
	for _, id := range IDs() {
		line("values "+id, id, func(res *Result) string {
			v := maps.Clone(res.Values)
			maps.DeleteFunc(v, func(k string, _ float64) bool { return hostTiming(id, k) })
			return golden.Digest(golden.Map(v))
		})
	}
	golden.Check(t, "testdata/golden_experiments.txt", out.String(), *update)
}

// hostTiming reports whether value key of experiment id is a wall-clock
// measurement, which differs from run to run: Fig. 10's convergence
// times and the ordering ablation's times and speedup.
func hostTiming(id, key string) bool {
	switch id {
	case "fig10":
		return strings.HasPrefix(key, "t_")
	case "ablation-order":
		return strings.HasSuffix(key, "_s") || key == "speedup"
	}
	return false
}

// runAtProcs runs experiment id with runtime.GOMAXPROCS set to procs,
// which sizes the figure's trial fan-out (0 keeps the current setting),
// and restores the previous setting afterwards.
func runAtProcs(t *testing.T, id string, cfg Config, procs int) *Result {
	t.Helper()
	if procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	res, err := Run(id, cfg)
	if err != nil {
		t.Fatalf("%s at GOMAXPROCS %d: %v", id, procs, err)
	}
	return res
}
