package sim

import (
	"runtime"
	"testing"
)

// TestRunAllocBudget pins the steady-state allocation count of a Run that
// reuses a Scratch, at the derived window. The budget is deliberately a
// little above the measured value (one: the withDefaults capture-threshold
// pointer) but orders of magnitude below the unpooled cost, so
// any hot-path regression — a buffer that stopped being reused, a slice
// that escapes again — trips it immediately.
func TestRunAllocBudget(t *testing.T) {
	net, p, a := goldenNetwork(120, 4)
	sc := new(Scratch)
	cfg := Config{PacketsPerDevice: 12, Seed: 7, Scratch: sc}
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
// windows.
func TestRunStreamingAllocBudget(t *testing.T) {
	net, p, a := goldenNetwork(120, 4)
	sc := new(Scratch)
	cfg := Config{PacketsPerDevice: 12, Seed: 7, Scratch: sc}.withDefaults()
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

// TestRunZeroAllocsAtGOMAXPROCS2 pins that a warm run starts no goroutine
// and allocates nothing on the heap when more than one core is available
// (testing.AllocsPerRun would force GOMAXPROCS 1): a run is single-threaded
// at any core count, at the derived window and at a 60 s one.
func TestRunZeroAllocsAtGOMAXPROCS2(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	net, p, a := goldenNetwork(120, 4)
	sc := new(Scratch)
	cfg := Config{PacketsPerDevice: 12, Seed: 7, Scratch: sc}.withDefaults()
	for _, window := range []float64{0, 60} {
		if _, err := run(net, p, a, cfg, window); err != nil {
			t.Fatal(err)
		}
		// The fewest heap allocations any of several warm runs made:
		// background runtime work can only add to a run's count.
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
		if best != 0 {
			t.Errorf("window=%g: a warm run made %d heap allocations, want 0", window, best)
		}
	}
}

// TestRunConfirmedAllocBudget extends the scratch-reuse budget to the
// confirmed MAC loop: the event slab, the index heaps and the per-gateway
// engines all live in the Scratch, so a warm RunConfirmed is down to the
// same fixed per-call overhead as Run (the RNG and the capture-threshold
// pointer withDefaults materializes).
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
