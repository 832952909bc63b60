package sim

import (
	"cmp"
	"slices"

	"eflora/internal/slab"
)

// txEntry is one scanned transmission: its start and device form the
// schedule's (start, device) sort key. bucket is orderWindow's scratch.
type txEntry struct {
	start  float64
	dev    int32
	bucket int32
}

// insertionMax is the largest bucket orderWindow sorts by insertion;
// larger buckets (clustered starts) take an O(m log m) sort instead of
// insertion sort's O(m²).
const insertionMax = 16

// orderWindow returns es in ascending (start, dev) order, written into
// dst's storage (end is bucket-offset scratch; both are returned for
// reuse). Among entries with equal starts, es must already list devices
// in ascending order — true of the device scan, which emits devices in
// index order and never two equal starts for one device.
//
// It is a bucket sort in O(len(es)) for spread-out starts. k entries
// spanning [lo, hi] go to k buckets by ⌊k·(start−lo)/(hi−lo)⌋, which is
// monotone in start, so bucket order is start order. The scatter is a
// stable counting pass, so within a bucket equal starts stay in device
// order, and sorting each bucket by start alone completes the order.
//
//eflora:hotpath
func orderWindow(dst, es []txEntry, end []int32) ([]txEntry, []int32) {
	k := len(es)
	dst = slab.Grow(dst, k)
	if k == 0 {
		return dst, end
	}
	lo, hi := es[0].start, es[0].start
	for _, e := range es {
		lo = min(lo, e.start)
		hi = max(hi, e.start)
	}
	if lo == hi {
		// One start for all: devices are already in ascending order.
		copy(dst, es)
		return dst, end
	}
	span, nb := hi-lo, float64(k)
	end = slab.GrowZero(end, k+1)
	for i := range es {
		// (start-lo)/span lies in [0, 1]; only start == hi reaches k.
		b := min(int(nb*((es[i].start-lo)/span)), k-1)
		es[i].bucket = int32(b)
		end[b+1]++
	}
	for b := 1; b <= k; b++ {
		end[b] += end[b-1]
	}
	for _, e := range es {
		dst[end[e.bucket]] = e
		end[e.bucket]++
	}
	// end[b] is now the end of bucket b (and the start of bucket b+1).
	from := 0
	for b := 0; b < k; b++ {
		to := int(end[b])
		switch m := to - from; {
		case m > insertionMax:
			slices.SortFunc(dst[from:to], compareEntries)
		case m > 1:
			insertionSort(dst[from:to])
		}
		from = to
	}
	return dst, end
}

// insertionSort orders a bucket by start, stably.
func insertionSort(b []txEntry) {
	for i := 1; i < len(b); i++ {
		e := b[i]
		j := i
		for ; j > 0 && b[j-1].start > e.start; j-- {
			b[j] = b[j-1]
		}
		b[j] = e
	}
}

// compareEntries is the schedule order: start, then device.
func compareEntries(x, y txEntry) int {
	if c := cmp.Compare(x.start, y.start); c != 0 {
		return c
	}
	return cmp.Compare(x.dev, y.dev)
}
