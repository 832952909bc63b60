// Package par provides the repository's bounded, deterministic fan-out
// primitive. Every parallel hot path (gateway replay in sim, trial and
// data-point fan-out in exp, cells of the hierarchical allocator) funnels
// through a Team, so a single knob — a Parallelism field defaulting to
// runtime.GOMAXPROCS(0) — controls the goroutine budget at each level, and
// a worker count of 1 degenerates to a plain loop with zero overhead.
//
// A Team starts its goroutines once and reuses them for every Run, so a
// driver that fans out many times per call (the simulator runs one fan-out
// per schedule window) pays for the goroutines once, not per fan-out. For
// is a one-shot Team.
//
// Determinism contract: a Team only schedules work; callers write results
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

// Team runs fn(i) for every i in [0, n) on each Run, using the calling
// goroutine plus up to Workers(workers)-1 helper goroutines started by
// Start and kept until Stop. A Team serves one Run at a time.
type Team struct {
	n    int
	fn   func(i int)
	next atomic.Int64
	// wake carries one token per helper per Run; batch is the per-Run
	// barrier; exited counts down as helpers return after Stop closes
	// wake.
	wake          chan struct{}
	helpers       int
	batch, exited sync.WaitGroup
}

// Start starts a team for n indexes. With an effective worker count of 1
// (or n <= 1) it starts no goroutines and Run loops inline on the calling
// goroutine.
//
// fn must confine its side effects to the i-th slot of caller-owned
// storage; a Run gives no ordering guarantees between indexes.
func Start(workers, n int, fn func(i int)) *Team {
	return start(workers, n, fn, nil)
}

// start is Start with a hook each helper calls, with its own number, as
// the last thing before it exits — the seam that lets tests observe that
// Stop waits for every helper.
func start(workers, n int, fn func(i int), exit func(w int)) *Team {
	t := &Team{n: n, fn: fn, helpers: max(min(Workers(workers), n)-1, 0)}
	if t.helpers == 0 {
		return t
	}
	t.wake = make(chan struct{}, t.helpers)
	t.exited.Add(t.helpers)
	for w := 0; w < t.helpers; w++ {
		go t.helper(w, exit)
	}
	return t
}

func (t *Team) helper(w int, exit func(w int)) {
	defer t.exited.Done()
	for range t.wake {
		t.drain()
		t.batch.Done()
	}
	if exit != nil {
		exit(w)
	}
}

// drain claims indexes until none are left. Claiming from a shared
// counter, rather than handing indexes out, keeps every goroutine busy
// until the last index is taken however uneven the costs.
func (t *Team) drain() {
	for {
		i := int(t.next.Add(1)) - 1
		if i >= t.n {
			return
		}
		t.fn(i)
	}
}

// Run calls fn(i) for every i in [0, n) and returns when all calls have
// completed. It wakes every helper, claims indexes on the calling
// goroutine alongside them, and waits until each helper has found the
// indexes exhausted.
func (t *Team) Run() {
	if t.helpers == 0 {
		for i := 0; i < t.n; i++ {
			t.fn(i)
		}
		return
	}
	t.next.Store(0)
	t.batch.Add(t.helpers)
	for w := 0; w < t.helpers; w++ {
		// Never blocks: the buffer holds one token per helper, and the
		// previous Run's barrier saw every helper take its token.
		t.wake <- struct{}{}
	}
	t.drain()
	t.batch.Wait()
}

// Stop ends the team: it returns once every helper goroutine has exited.
// The team must not be used afterwards.
func (t *Team) Stop() {
	if t.helpers == 0 {
		return
	}
	close(t.wake)
	t.exited.Wait()
}

// For runs fn(i) for every i in [0, n) using up to Workers(workers)
// goroutines, and returns when all calls have completed: a Team started,
// run once and stopped. With an effective worker count of 1 (or n <= 1)
// it runs inline on the calling goroutine.
func For(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	t := Start(workers, n, fn)
	t.Run()
	t.Stop()
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
