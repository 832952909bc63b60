// Package par provides the repository's bounded, deterministic fan-out
// primitive. Every parallel hot path (gateway replay in sim, trial and
// data-point fan-out in exp, cells of the hierarchical allocator) funnels
// through For, so a single knob — a Parallelism field defaulting to
// runtime.GOMAXPROCS(0) — controls the goroutine budget at each level, and
// a worker count of 1 degenerates to a plain loop with zero overhead.
//
// Determinism contract: For only schedules work; callers write results
// into index-addressed slots and merge them in index order afterward, so
// the outcome of a fan-out is bit-identical at any worker count.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a parallelism knob: values <= 0 select
// runtime.GOMAXPROCS(0), the number of goroutines that can actually run at
// once — more workers than that only add scheduling and per-worker buffer
// overhead — and anything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// For runs fn(i) for every i in [0, n) using up to Workers(workers)
// goroutines, and returns when all calls have completed. Iterations are
// handed out dynamically, so uneven task costs still keep every worker
// busy. With an effective worker count of 1 (or n <= 1) it runs inline on
// the calling goroutine.
//
// fn must confine its side effects to the i-th slot of caller-owned
// storage; For gives no ordering guarantees between iterations.
func For(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
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
