package exp

import (
	"flag"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"eflora/internal/golden"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenExperiments pins small-scale experiment outputs — the full
// rendered text and every headline value, floats at bit precision — to
// digests in testdata/. A hot-path refactor that changes results (not
// just speed) anywhere in the build → allocate → simulate → aggregate
// pipeline fails here, at GOMAXPROCS 1 and at the default alike (the
// figure's job grid run in order and fanned out).
func TestGoldenExperiments(t *testing.T) {
	cfg := Config{Scale: 0.02, Trials: 2, PacketsPerDevice: 10, Seed: 3}
	var out strings.Builder
	for _, id := range []string{"table1", "fig5"} {
		var digests []string
		for _, procs := range []int{1, 0} {
			res := runAtProcs(t, id, cfg, procs)
			digests = append(digests, golden.Digest(res.Text, golden.Map(res.Values)))
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: GOMAXPROCS 1 digest %s != default digest %s", id, digests[0], digests[1])
		}
		fmt.Fprintf(&out, "%s %s\n", id, digests[0])
	}
	golden.Check(t, "testdata/golden_experiments.txt", out.String(), *update)
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
