package stats

import (
	"math"
	"math/bits"
	"time"
)

// LatencyHistogram is a power-of-two-bucketed latency histogram: bucket 0
// counts zero (and negative) durations and bucket i >= 1 those of
// [2^(i-1), 2^i) nanoseconds; the last bucket also takes everything
// longer (from 2^38 ns, about 4.6 minutes). The zero value is empty.
// Observe neither allocates nor blocks. A LatencyHistogram is a plain
// value — copy it to snapshot it — and is not safe for concurrent use; an
// owner shared between goroutines guards it with its own lock.
type LatencyHistogram struct {
	Buckets [40]uint64
}

// Observe records one latency.
func (h *LatencyHistogram) Observe(d time.Duration) {
	i := 0
	if d > 0 {
		i = min(bits.Len64(uint64(d)), len(h.Buckets)-1)
	}
	h.Buckets[i]++
}

// Add folds o's observations into h.
func (h *LatencyHistogram) Add(o *LatencyHistogram) {
	for i, c := range o.Buckets {
		h.Buckets[i] += c
	}
}

// Count returns the total number of observations.
func (h *LatencyHistogram) Count() uint64 {
	var total uint64
	for _, c := range h.Buckets {
		total += c
	}
	return total
}

// Quantile returns the nearest-rank q-quantile: the upper bound of the
// bucket holding the ⌈q·n⌉-th smallest of the n observations (the
// smallest for q <= 0, the largest for q >= 1), which exceeds that
// observation by less than a factor of two. ok is false before any
// observation.
func (h *LatencyHistogram) Quantile(q float64) (time.Duration, bool) {
	n := h.Count()
	if n == 0 {
		return 0, false
	}
	rank := nearestRank(q, n)
	var seen uint64
	i := 0
	for ; i < len(h.Buckets)-1; i++ {
		if seen += h.Buckets[i]; seen >= rank {
			break
		}
	}
	return time.Duration(1) << i, true
}

// nearestRank returns ⌈q·n⌉ clamped to [1, n]. A product within a
// relative 1e-9 of an integer counts as that integer, so a q written in
// decimal hits the rank the decimal means: 0.07 is stored just above
// 7/100, and ⌈0.07·100⌉ is 7, not 8.
func nearestRank(q float64, n uint64) uint64 {
	if !(q > 0) {
		return 1
	}
	if q >= 1 {
		return n
	}
	x := q * float64(n)
	r := math.Round(x)
	if math.Abs(x-r) > 1e-9*r {
		r = math.Ceil(x)
	}
	return min(max(uint64(r), 1), n)
}
