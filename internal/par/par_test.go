package par

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// atProcs runs f with runtime.GOMAXPROCS set to procs, which sizes every
// fan-out For makes, and restores the previous setting afterwards.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestWorkersDefaultsToGOMAXPROCS pins For's worker count to the
// goroutines that can run at once: no more than GOMAXPROCS calls of fn are
// ever in flight, following GOMAXPROCS when it is lowered.
func TestWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	for _, procs := range []int{1, 2, 3} {
		var active, peak atomic.Int32
		atProcs(procs, func() {
			For(200, func(int) {
				n := active.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				runtime.Gosched()
				active.Add(-1)
			})
		})
		if got := peak.Load(); got < 1 || int(got) > procs {
			t.Errorf("GOMAXPROCS %d: %d calls in flight at once", procs, got)
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 7, 64} {
		const n = 1000
		counts := make([]int32, n)
		atProcs(procs, func() {
			For(n, func(i int) {
				atomic.AddInt32(&counts[i], 1)
			})
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("GOMAXPROCS %d: index %d ran %d times", procs, i, c)
			}
		}
	}
}

func TestForInlineWhenSingleWorker(t *testing.T) {
	// At GOMAXPROCS 1 the iterations must run in order on the calling
	// goroutine (no interleaving), which callers may rely on for debugging.
	var order []int
	atProcs(1, func() {
		For(5, func(i int) { order = append(order, i) })
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("inline order = %v", order)
		}
	}
}

func TestForEmptyAndNegative(t *testing.T) {
	ran := false
	atProcs(4, func() {
		For(0, func(int) { ran = true })
		For(-1, func(int) { ran = true })
	})
	if ran {
		t.Error("For ran iterations for n <= 0")
	}
}

// TestForIsABarrier shows, under -race, that For returns only after every
// call has completed: fn writes plain, non-atomic slots and the caller
// reads them after For with no other synchronization, so a For that
// returned early — or a helper still running — would be a data race (and
// would leave slots unset).
func TestForIsABarrier(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		for n := 0; n <= 100; n++ {
			slots := make([]int, n)
			atProcs(procs, func() {
				For(n, func(i int) { slots[i] = i + 1 })
			})
			for i, v := range slots {
				if v != i+1 {
					t.Fatalf("GOMAXPROCS %d n=%d: slot %d = %d after For returned", procs, n, i, v)
				}
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
