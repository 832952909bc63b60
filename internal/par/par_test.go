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

// TestForIsABarrier shows, under -race, that For returns only after every
// call has completed: fn writes plain, non-atomic slots and the caller
// reads them after For with no other synchronization, so a For that
// returned early — or a helper still running — would be a data race (and
// would leave slots unset).
func TestForIsABarrier(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for n := 0; n <= 100; n++ {
			slots := make([]int, n)
			For(workers, n, func(i int) { slots[i] = i + 1 })
			for i, v := range slots {
				if v != i+1 {
					t.Fatalf("workers=%d n=%d: slot %d = %d after For returned", workers, n, i, v)
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
