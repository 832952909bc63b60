package exp

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"eflora/internal/golden"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenExperiments pins small-scale experiment outputs — the full
// rendered text and every headline value, floats at bit precision — to
// digests in testdata/. A hot-path refactor that changes results (not
// just speed) anywhere in the build → allocate → simulate → aggregate
// pipeline fails here, at Parallelism 1 and 0 alike (the figure's job
// grid run in order and fanned out).
func TestGoldenExperiments(t *testing.T) {
	cfg := Config{Scale: 0.02, Trials: 2, PacketsPerDevice: 10, Seed: 3}
	var out strings.Builder
	for _, id := range []string{"table1", "fig5"} {
		var digests []string
		for _, par := range []int{1, 0} {
			c := cfg
			c.Parallelism = par
			res, err := Run(id, c)
			if err != nil {
				t.Fatalf("%s parallelism=%d: %v", id, par, err)
			}
			digests = append(digests, golden.Digest(res.Text, golden.Map(res.Values)))
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: Parallelism=1 digest %s != Parallelism=0 digest %s", id, digests[0], digests[1])
		}
		fmt.Fprintf(&out, "%s %s\n", id, digests[0])
	}
	golden.Check(t, "testdata/golden_experiments.txt", out.String(), *update)
}
