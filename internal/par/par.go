// Package par provides the repository's bounded, deterministic fan-out
// primitive. The rule it serves: fan out only over independent jobs, and
// nothing under a job fans out again. Two callers follow it — the flat
// (data point, method, trial) grid of every figure in exp and the cells of
// the hierarchical allocator — and both are sized by
// runtime.GOMAXPROCS(0); there is no worker knob. At GOMAXPROCS 1 a
// fan-out degenerates to a plain loop with zero overhead.
//
// Determinism contract: For only schedules work; callers write results
// into index-addressed slots and merge them in index order afterward, so
// the outcome of a fan-out is bit-identical at any GOMAXPROCS.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n) and returns when all calls have
// completed. The calling goroutine and min(runtime.GOMAXPROCS(0), n)-1
// helper goroutines — more than GOMAXPROCS would only add scheduling
// overhead — claim indexes from one shared counter rather than being
// handed fixed shares, so every goroutine stays busy until the last index
// is taken however uneven the costs. At GOMAXPROCS 1 (or n <= 1) it loops
// inline on the calling goroutine, in index order.
//
// fn must confine its side effects to the i-th slot of caller-owned
// storage; For gives no ordering guarantees between indexes, but every
// write fn makes is visible to the caller once For returns.
func For(n int, fn func(i int)) {
	helpers := min(runtime.GOMAXPROCS(0), n) - 1
	if helpers <= 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	drain := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(helpers)
	for w := 0; w < helpers; w++ {
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
}

// FirstErr returns the lowest-index non-nil error of a per-slot error
// slice — the error a sequential loop over the same work would have
// returned first — or nil if every slot succeeded.
func FirstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
