// Package stats provides the descriptive statistics the experiments
// report — summaries, empirical CDFs, quantiles, Jain's fairness index and
// histogram binning — and the power-of-two latency histogram the network
// server's metrics share.
package stats

import (
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N                   int
	Min, Max, Mean, Std float64
	Sum                 float64
}

// Summarize computes a Summary of xs. NaN values are ignored; an empty (or
// all-NaN) input yields a zero-value Summary with N == 0.
func Summarize(xs []float64) Summary {
	var s Summary
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		s.N++
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	if s.N == 0 {
		return Summary{}
	}
	s.Mean = s.Sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		d := x - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(s.N))
	return s
}

// Min returns the smallest value in xs, or +Inf for empty input.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// JainIndex computes Jain's fairness index (Σx)² / (n·Σx²), which is 1 for
// perfectly equal allocations and 1/n for a single non-zero share. It
// returns 0 for empty input or all-zero samples.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from a sample (copied; the input is not mutated).
func NewECDF(xs []float64) *ECDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns P{X <= x}.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// First index with sorted[i] > x.
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-th quantile (q in [0,1]) by linear interpolation
// between closest ranks. It returns NaN for empty input.
func (e *ECDF) Quantile(q float64) float64 {
	n := len(e.sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return e.sorted[n-1]
	}
	return e.sorted[lo]*(1-frac) + e.sorted[lo+1]*frac
}

// Points returns up to k evenly spaced (x, P{X<=x}) pairs suitable for
// plotting the CDF curve. Fewer points are returned for small samples.
func (e *ECDF) Points(k int) (xs, ps []float64) {
	n := len(e.sorted)
	if n == 0 || k <= 0 {
		return nil, nil
	}
	if k > n {
		k = n
	}
	xs = make([]float64, k)
	ps = make([]float64, k)
	for i := 0; i < k; i++ {
		idx := (i + 1) * n / k
		if idx > n {
			idx = n
		}
		xs[i] = e.sorted[idx-1]
		ps[i] = float64(idx) / float64(n)
	}
	return xs, ps
}

// Percentile is shorthand for building an ECDF and taking one quantile.
func Percentile(xs []float64, q float64) float64 {
	return NewECDF(xs).Quantile(q)
}
