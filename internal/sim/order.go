package sim

import (
	"cmp"
	"slices"

	"eflora/internal/slab"
)

// attemptBits is the width of a txEntry key's attempt field: a
// transmission is one of at most MaxTransmissions = 1<<attemptBits
// attempts of its packet.
const attemptBits = 3

// maxDevices bounds the device count so that every device index fits a
// txEntry key.
const maxDevices = 1 << (32 - attemptBits)

// txEntry is one scanned transmission. key packs its device and attempt
// number as dev<<attemptBits | (attempt-1), so (start, key) is the
// schedule's (start, device, attempt) sort key. bucket is orderWindow's
// scratch.
type txEntry struct {
	start  float64
	key    uint32
	bucket int32
}

// entryKey packs device dev's attempt-th transmission into a txEntry key.
func entryKey(dev int, attempt uint8) uint32 {
	return uint32(dev)<<attemptBits | uint32(attempt-1)
}

// dev and attempt unpack the entry's key.
func (e txEntry) dev() int32     { return int32(e.key >> attemptBits) }
func (e txEntry) attempt() uint8 { return uint8(e.key&(1<<attemptBits-1)) + 1 }

// insertionMax is the largest bucket orderWindow sorts by insertion;
// larger buckets (clustered starts) take an O(m log m) sort instead of
// insertion sort's O(m²).
const insertionMax = 16

// orderWindow returns es in ascending (start, key) order, written into
// dst's storage (end is bucket-offset scratch; both are returned for
// reuse).
//
// It is a bucket sort in O(len(es)) for spread-out starts. k entries
// spanning [lo, hi] go to k buckets by ⌊k·(start−lo)/(hi−lo)⌋, which is
// monotone in start, so bucket order is start order, and sorting each
// bucket completes the order.
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
		// One start for all: order by key alone. The device scan emits
		// its keys in ascending order, which the sort detects in one
		// pass.
		copy(dst, es)
		slices.SortFunc(dst, compareEntries)
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

// insertionSort orders a bucket by (start, key).
func insertionSort(b []txEntry) {
	for i := 1; i < len(b); i++ {
		e := b[i]
		j := i
		for ; j > 0 && (b[j-1].start > e.start || b[j-1].start == e.start && b[j-1].key > e.key); j-- {
			b[j] = b[j-1]
		}
		b[j] = e
	}
}

// compareEntries is the schedule order: start, then device, then
// attempt.
func compareEntries(x, y txEntry) int {
	if c := cmp.Compare(x.start, y.start); c != 0 {
		return c
	}
	return cmp.Compare(x.key, y.key)
}
