package exp

import (
	"runtime"
	"strings"
	"testing"
)

// TestExperimentBitIdenticalAcrossParallelism runs a small figure end to
// end — deployment, allocation, simulation, aggregation — at GOMAXPROCS 1
// and 4, and requires every headline value to be bit-identical: trials
// and data points merge in index order, so the float accumulation
// sequence never changes.
func TestExperimentBitIdenticalAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full experiments")
	}
	cfg := Config{Scale: 0.01, Trials: 2, PacketsPerDevice: 10, Seed: 5}

	for _, id := range []string{"fig4", "fig9"} {
		seq := runAtProcs(t, id, cfg, 1)
		par := runAtProcs(t, id, cfg, 4)
		if len(seq.Values) == 0 || len(seq.Values) != len(par.Values) {
			t.Fatalf("%s: value sets differ: %d vs %d", id, len(seq.Values), len(par.Values))
		}
		for k, v := range seq.Values {
			if pv, ok := par.Values[k]; !ok || pv != v {
				t.Errorf("%s: %q = %v sequential vs %v parallel (must be bit-identical)", id, k, v, pv)
			}
		}
		if seq.Text != par.Text {
			t.Errorf("%s: rendered text diverged between GOMAXPROCS settings", id)
		}
	}
}

// TestTrialGridReturnsLowestTaskError fails two tasks of a flat grid —
// unknown methods at indexes 1 and 3, each failing in every trial — and
// requires the error a sequential loop would have met first, task 1's,
// whether the jobs run in order (GOMAXPROCS 1) or fan out (the default).
func TestTrialGridReturnsLowestTaskError(t *testing.T) {
	ok := methodTasks(12, 1, nil)
	bad := func(method string) trialTask {
		return trialTask{devices: 12, gateways: 1, radiusM: 5000, method: method}
	}
	tasks := []trialTask{ok[0], bad("no-such-method-1"), ok[1], bad("no-such-method-3"), ok[2]}
	cfg := Config{Trials: 3, PacketsPerDevice: 5, Seed: 2}.withDefaults()
	for _, procs := range []int{1, 0} {
		grid, err := gridAtProcs(cfg, tasks, procs)
		if err == nil || grid != nil {
			t.Fatalf("GOMAXPROCS %d: grid=%v err=%v, want task 1's error", procs, grid, err)
		}
		if !strings.Contains(err.Error(), "no-such-method-1") {
			t.Errorf("GOMAXPROCS %d: error %q is not task 1's", procs, err)
		}
	}
}

// gridAtProcs runs runTrialGrid with runtime.GOMAXPROCS set to procs (0
// keeps the current setting) and restores the previous setting.
func gridAtProcs(cfg Config, tasks []trialTask, procs int) ([]trialStats, error) {
	if procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	return runTrialGrid(cfg, tasks)
}
