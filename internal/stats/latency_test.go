package stats

import (
	"math"
	"math/bits"
	"slices"
	"testing"
	"time"

	"eflora/internal/rng"
)

// nearestRankQs are the quantiles the tests below probe, as fractions
// num/den whose rank ⌈num·n/den⌉ is exact in integers.
var nearestRankQs = []struct{ num, den uint64 }{
	{1, 1000}, {7, 100}, {1, 10}, {1, 4}, {1, 3}, {1, 2}, {2, 3},
	{9, 10}, {95, 100}, {99, 100}, {999, 1000}, {1, 1},
}

// TestNearestRankRounding checks the rank against integer arithmetic at
// every sample count up to 1000: q·n in floats can land just above the
// integer the decimal q means (0.07·100 is 7.000000000000001), and a plain
// ceiling would then pick the next sample.
func TestNearestRankRounding(t *testing.T) {
	for n := uint64(1); n <= 1000; n++ {
		for _, q := range nearestRankQs {
			want := max((q.num*n+q.den-1)/q.den, 1)
			if got := nearestRank(float64(q.num)/float64(q.den), n); got != want {
				t.Fatalf("n=%d q=%d/%d: rank %d, want %d", n, q.num, q.den, got, want)
			}
		}
	}
}

// TestLatencyHistogramNearestRank checks Quantile against an exact sort of
// the raw samples: for every sample count and q, the reported bound must
// be the upper bound of the bucket holding the ⌈q·n⌉-th smallest sample.
// The samples span zero, every bucket and durations past the last bucket's
// floor.
func TestLatencyHistogramNearestRank(t *testing.T) {
	bound := func(d time.Duration) time.Duration {
		i := 0
		if d > 0 {
			i = min(bits.Len64(uint64(d)), 39)
		}
		return time.Duration(1) << i
	}
	r := rng.New(5)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(250)
		samples := make([]time.Duration, n)
		var h LatencyHistogram
		for i := range samples {
			// Log-uniform over [1 ns, 2^41 ns], with some exact zeros and
			// duplicates.
			d := time.Duration(math.Exp2(41 * r.Float64()))
			switch r.Intn(10) {
			case 0:
				d = 0
			case 1:
				if i > 0 {
					d = samples[i-1]
				}
			}
			samples[i] = d
			h.Observe(d)
		}
		if h.Count() != uint64(n) {
			t.Fatalf("n=%d: Count = %d", n, h.Count())
		}
		slices.Sort(samples)
		for _, q := range nearestRankQs {
			rank := max((q.num*uint64(n)+q.den-1)/q.den, 1)
			got, ok := h.Quantile(float64(q.num) / float64(q.den))
			if want := bound(samples[rank-1]); !ok || got != want {
				t.Fatalf("n=%d q=%d/%d: Quantile = %v (ok %v), want %v (sample %d of %d is %v)",
					n, q.num, q.den, got, ok, want, rank, n, samples[rank-1])
			}
		}
		if got, _ := h.Quantile(0); got != bound(samples[0]) {
			t.Fatalf("n=%d: Quantile(0) = %v, want the smallest sample's bound %v", n, got, bound(samples[0]))
		}
	}
}

// TestLatencyHistogramSmallCounts pins nearest rank on the small counts
// where an off-by-one rank rule shows: the median of three samples is the
// second, the median of two the first, and the 99th percentile of 100 the
// 99th.
func TestLatencyHistogramSmallCounts(t *testing.T) {
	var empty LatencyHistogram
	if _, ok := empty.Quantile(0.5); ok {
		t.Fatal("empty histogram reported a quantile")
	}
	var three LatencyHistogram
	for _, d := range []time.Duration{1, 100, 10000} {
		three.Observe(d)
	}
	if got, _ := three.Quantile(0.5); got != 128 {
		t.Errorf("median of {1, 100, 10000} ns reported %v, want the 100 ns bucket's bound 128ns", got)
	}
	var two LatencyHistogram
	two.Observe(1)
	two.Observe(1000)
	if got, _ := two.Quantile(0.5); got != 2 {
		t.Errorf("median of {1, 1000} ns reported %v, want the 1 ns bucket's bound 2ns", got)
	}
	var hundred LatencyHistogram
	for i := 0; i < 99; i++ {
		hundred.Observe(time.Microsecond)
	}
	hundred.Observe(time.Second)
	if got, _ := hundred.Quantile(0.99); got != 1024*time.Nanosecond {
		t.Errorf("p99 of 99 x 1µs + 1 x 1s reported %v, want the 1µs bucket's bound", got)
	}
	var merged LatencyHistogram
	merged.Add(&three)
	merged.Add(&two)
	if merged.Count() != 5 {
		t.Errorf("merged Count = %d, want 5", merged.Count())
	}
}

func TestLatencyHistogramObserveAllocatesNothing(t *testing.T) {
	var h LatencyHistogram
	if got := testing.AllocsPerRun(100, func() { h.Observe(time.Millisecond) }); got != 0 {
		t.Errorf("Observe allocates %v per call", got)
	}
}
