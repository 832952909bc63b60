package par

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestWorkersDefaultsToGOMAXPROCS pins the default pool size to the
// goroutines that can run at once, following GOMAXPROCS when it is lowered.
func TestWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != procs {
		t.Errorf("Workers(0) = %d, want %d", got, procs)
	}
	if got := Workers(-3); got != procs {
		t.Errorf("Workers(-3) = %d, want %d", got, procs)
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := Workers(0); got != 1 {
		t.Errorf("Workers(0) at GOMAXPROCS 1 = %d, want 1", got)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 1000
		counts := make([]int32, n)
		For(workers, n, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForInlineWhenSingleWorker(t *testing.T) {
	// With one worker the iterations must run in order on the calling
	// goroutine (no interleaving), which callers may rely on for debugging.
	var order []int
	For(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("inline order = %v", order)
		}
	}
}

func TestForEmptyAndNegative(t *testing.T) {
	ran := false
	For(4, 0, func(int) { ran = true })
	For(4, -1, func(int) { ran = true })
	if ran {
		t.Error("For ran iterations for n <= 0")
	}
}

// TestTeamRunsEveryIndexOncePerRun reuses one team across many fan-outs,
// the way the simulator runs one per schedule window.
func TestTeamRunsEveryIndexOncePerRun(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		const n, runs = 5, 200
		counts := make([]int32, n)
		team := Start(workers, n, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for r := 1; r <= runs; r++ {
			team.Run()
			// Run is a barrier: every index of this run has completed.
			for i := range counts {
				if c := atomic.LoadInt32(&counts[i]); c != int32(r) {
					t.Fatalf("workers=%d run %d: index %d ran %d times", workers, r, i, c)
				}
			}
		}
		team.Stop()
	}
}

// TestTeamStopWaitsForWorkers shows, under -race, that Stop returns only
// after every worker goroutine has exited: each worker writes its own slot
// as it exits, and the test reads the slots after Stop with no other
// synchronization — a Stop that returned early would be a data race (and
// would leave slots unset).
func TestTeamStopWaitsForWorkers(t *testing.T) {
	const workers = 4
	for trial := 0; trial < 50; trial++ {
		exited := make([]bool, workers-1)
		var ran atomic.Int64
		team := start(workers, 16, func(int) { ran.Add(1) }, func(w int) { exited[w] = true })
		team.Run()
		team.Run()
		team.Stop()
		for w, ok := range exited {
			if !ok {
				t.Fatalf("trial %d: Stop returned before worker %d exited", trial, w)
			}
		}
		if got := ran.Load(); got != 32 {
			t.Fatalf("trial %d: %d calls, want 32", trial, got)
		}
	}
}

// TestTeamStartsNoGoroutinesInline pins the sequential degenerate case:
// one worker (or one index) starts nothing, and Stop is a no-op.
func TestTeamStartsNoGoroutinesInline(t *testing.T) {
	for _, c := range []struct{ workers, n int }{{1, 10}, {8, 1}, {8, 0}} {
		var order []int
		team := start(c.workers, c.n, func(i int) { order = append(order, i) }, func(int) {
			t.Errorf("workers=%d n=%d: a worker goroutine was started", c.workers, c.n)
		})
		team.Run()
		team.Stop()
		if len(order) != c.n {
			t.Fatalf("workers=%d n=%d: ran %v", c.workers, c.n, order)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("workers=%d n=%d: inline order = %v", c.workers, c.n, order)
			}
		}
	}
}

func TestFirstErrPicksLowestIndex(t *testing.T) {
	e1, e2 := errors.New("one"), errors.New("two")
	if err := FirstErr([]error{nil, e1, e2}); err != e1 {
		t.Errorf("FirstErr = %v, want %v", err, e1)
	}
	if err := FirstErr([]error{nil, nil}); err != nil {
		t.Errorf("FirstErr = %v, want nil", err)
	}
	if err := FirstErr(nil); err != nil {
		t.Errorf("FirstErr(nil) = %v", err)
	}
}
