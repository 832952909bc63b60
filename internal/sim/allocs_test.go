package sim

import (
	"runtime"
	"testing"
)

// TestRunAllocBudget pins the steady-state allocation count of a Run that
// reuses a Scratch, at the derived window. The budget is deliberately a little above the measured value (the per-run
// closure and worker-team start) but orders of magnitude below the
// unpooled cost, so any hot-path regression — a buffer that stopped being
// reused, a slice that escapes again — trips it immediately.
// testing.AllocsPerRun runs at GOMAXPROCS 1, so no worker goroutine
// starts here; TestRunAllocsFlatInWindowsWithWorkers covers the fan-out.
func TestRunAllocBudget(t *testing.T) {
	net, p, a := goldenNetwork(120, 4)
	sc := new(Scratch)
	cfg := Config{PacketsPerDevice: 12, Seed: 7, Parallelism: 1, Scratch: sc}
	// Warm the scratch to its high-water mark first.
	if _, err := Run(net, p, a, cfg); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(10, func() {
		if _, err := Run(net, p, a, cfg); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 8
	if got > budget {
		t.Errorf("Run with Scratch allocates %v per run, budget %d", got, budget)
	}
}

// TestRunStreamingAllocBudget pins the same steady state at a fixed 60 s
// window, far shorter than the derived one, so the run is split into many
// windows; sequential so no worker goroutine adds noise.
func TestRunStreamingAllocBudget(t *testing.T) {
	net, p, a := goldenNetwork(120, 4)
	sc := new(Scratch)
	cfg := Config{PacketsPerDevice: 12, Seed: 7, Parallelism: 1, Scratch: sc}.withDefaults()
	if _, err := run(net, p, a, cfg, 60); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(10, func() {
		if _, err := run(net, p, a, cfg, 60); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 8
	if got > budget {
		t.Errorf("Run at a 60 s window with Scratch allocates %v per run, budget %d", got, budget)
	}
}

// TestRunAllocsFlatInWindowsWithWorkers checks the worker fan-out's
// allocations at GOMAXPROCS 2 with Parallelism 0, where a worker
// goroutine really starts: a warm run split into about 1,000 windows must
// allocate no more than one split into about 10, so the workers are
// started once per run and nothing allocates per window.
func TestRunAllocsFlatInWindowsWithWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	net, p, a := goldenNetwork(120, 4)
	sc := new(Scratch)
	cfg := Config{PacketsPerDevice: 12, Seed: 7, Parallelism: 0, Scratch: sc}.withDefaults()
	if _, err := run(net, p, a, cfg, 0); err != nil {
		t.Fatal(err)
	}
	simEnd := sc.res.SimTimeS
	// mallocs is the fewest heap allocations any of several warm runs
	// made: background runtime work can only add to a run's count.
	mallocs := func(window float64) uint64 {
		if _, err := run(net, p, a, cfg, window); err != nil {
			t.Fatal(err)
		}
		var best uint64
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := run(net, p, a, cfg, window); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if d := after.Mallocs - before.Mallocs; i == 0 || d < best {
				best = d
			}
		}
		return best
	}
	few, many := mallocs(simEnd/10), mallocs(simEnd/1000)
	if many > few {
		t.Errorf("a run in ~1000 windows made %d allocations, one in ~10 windows %d", many, few)
	}
	if few > 8 {
		t.Errorf("a warm run made %d allocations, budget 8", few)
	}
}

// TestRunConfirmedAllocBudget extends the scratch-reuse budget to the
// confirmed MAC loop: the event slab, the index heaps and the per-gateway
// engines all live in the Scratch, so a warm RunConfirmed is down to the
// same fixed per-call overhead as Run (the RNG and the withDefaults
// pointer materializations).
func TestRunConfirmedAllocBudget(t *testing.T) {
	net, p, a := goldenNetwork(60, 2)
	sc := new(Scratch)
	cfg := ConfirmedConfig{
		Config:         Config{PacketsPerDevice: 8, Seed: 11, Scratch: sc},
		MaxAttempts:    4,
		HalfDuplexAcks: true,
	}
	if _, err := RunConfirmed(net, p, a, cfg); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(10, func() {
		if _, err := RunConfirmed(net, p, a, cfg); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 8
	if got > budget {
		t.Errorf("RunConfirmed with Scratch allocates %v per run, budget %d", got, budget)
	}
}
