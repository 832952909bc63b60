package sim

import (
	"runtime"
	"testing"
)

// TestRunAllocBudget pins the steady-state allocation count of a Run that
// reuses a Scratch, at the derived window: a warm run allocates nothing,
// so any hot-path regression — a buffer that stopped being reused, a
// slice or a config value that escapes again — trips it immediately.
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
	if got != 0 {
		t.Errorf("Run with Scratch allocates %v per run, want 0", got)
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
	if got != 0 {
		t.Errorf("Run at a 60 s window with Scratch allocates %v per run, want 0", got)
	}
}

// TestRunZeroAllocsAtGOMAXPROCS2 pins that a warm run starts no goroutine
// and allocates nothing on the heap when more than one core is available
// (testing.AllocsPerRun would force GOMAXPROCS 1): a run is single-threaded
// at any core count. It covers Run itself, with its validation and
// defaults, and the window loop at the derived window and at a 60 s one.
func TestRunZeroAllocsAtGOMAXPROCS2(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	net, p, a := goldenNetwork(120, 4)
	sc := new(Scratch)
	cfg := Config{PacketsPerDevice: 12, Seed: 7, Scratch: sc}
	runs := []struct {
		name string
		run  func() (*Result, error)
	}{
		{"Run", func() (*Result, error) { return Run(net, p, a, cfg) }},
		{"window=derived", func() (*Result, error) { return run(net, p, a, cfg.withDefaults(), 0) }},
		{"window=60", func() (*Result, error) { return run(net, p, a, cfg.withDefaults(), 60) }},
	}
	for _, r := range runs {
		if _, err := r.run(); err != nil {
			t.Fatal(err)
		}
		// The fewest heap allocations any of several warm runs made:
		// background runtime work can only add to a run's count.
		var best uint64
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := r.run(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if d := after.Mallocs - before.Mallocs; i == 0 || d < best {
				best = d
			}
		}
		if best != 0 {
			t.Errorf("%s: a warm run made %d heap allocations, want 0", r.name, best)
		}
	}
}

// TestRunConfirmedAllocBudget extends the scratch-reuse budget to
// confirmed traffic: the retransmission queues, the backoff streams and
// the window loop all live in the Scratch, so a warm RunConfirmed with
// half-duplex ACKs allocates nothing.
func TestRunConfirmedAllocBudget(t *testing.T) {
	net, p, a := goldenNetwork(60, 2)
	sc := new(Scratch)
	cfg := ConfirmedConfig{
		Config:         Config{PacketsPerDevice: 8, Seed: 11, Scratch: sc},
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
	if got != 0 {
		t.Errorf("RunConfirmed with Scratch allocates %v per run, want 0", got)
	}
}
