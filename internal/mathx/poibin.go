// Package mathx supplies the incrementally updatable Poisson-binomial
// distribution behind the analytical model's gateway-capacity probability
// (paper Eq. 12).
package mathx

import (
	"fmt"
	"math"
)

// PoissonBinomial tracks the distribution of the number of successes among
// independent Bernoulli trials with heterogeneous probabilities, truncated
// at a cap: it maintains P{N = m} exactly for m < cap and lumps P{N >= cap}
// into one bucket. Trials can be added and removed in O(cap), which is what
// lets the allocator re-evaluate the gateway-capacity probability
// (paper Eq. 12, the SX1301's eight-packet demodulation limit) after a
// single-device change without touching the other N-1 devices.
type PoissonBinomial struct {
	cap int
	// pm[m] = P{N = m} for m in [0, cap); tail = P{N >= cap}.
	pm   []float64
	tail float64
	n    int
}

// NewPoissonBinomial returns an empty distribution (P{N=0} = 1) truncated
// at the given cap. cap must be positive.
func NewPoissonBinomial(capN int) *PoissonBinomial {
	if capN <= 0 {
		panic(fmt.Sprintf("mathx: PoissonBinomial cap %d must be positive", capN))
	}
	pm := make([]float64, capN)
	pm[0] = 1
	return &PoissonBinomial{cap: capN, pm: pm}
}

// Reset returns the distribution to the empty state (P{N=0} = 1),
// reusing its storage.
func (pb *PoissonBinomial) Reset() {
	clear(pb.pm)
	pb.pm[0] = 1
	pb.tail = 0
	pb.n = 0
}

// Clone returns an independent copy.
func (pb *PoissonBinomial) Clone() *PoissonBinomial {
	cp := &PoissonBinomial{cap: pb.cap, pm: make([]float64, pb.cap), tail: pb.tail, n: pb.n}
	copy(cp.pm, pb.pm)
	return cp
}

// Len returns the number of trials currently in the distribution.
func (pb *PoissonBinomial) Len() int { return pb.n }

// Add incorporates a Bernoulli(p) trial. Probabilities are clamped to
// [0, 1].
func (pb *PoissonBinomial) Add(p float64) {
	p = clamp01(p)
	q := 1 - p
	// Mass flowing from m = cap-1 into the tail.
	pb.tail += p * pb.pm[pb.cap-1]
	for m := pb.cap - 1; m >= 1; m-- {
		pb.pm[m] = q*pb.pm[m] + p*pb.pm[m-1]
	}
	pb.pm[0] = q * pb.pm[0]
	pb.n++
}

// Remove deletes a previously added Bernoulli(p) trial (deconvolution).
// The caller must remove exactly the probabilities it added; removing a
// trial that was never added corrupts the distribution. Removal is
// numerically stable for p < 1; p == 1 trials are handled by shifting.
func (pb *PoissonBinomial) Remove(p float64) {
	p = clamp01(p)
	if pb.n == 0 {
		panic("mathx: Remove from empty PoissonBinomial")
	}
	pb.n--
	q := 1 - p
	if q < 1e-12 {
		// A certain success: N' = N - 1, so shift down one slot. The tail
		// keeps mass for N' >= cap-? — with a certain success the previous
		// distribution had pm[0] = 0, and P{N'=m} = P{N=m+1}.
		for m := 0; m < pb.cap-1; m++ {
			pb.pm[m] = pb.pm[m+1]
		}
		// P{N' = cap-1} + P{N' >= cap} were both inside the old tail; we
		// cannot split them exactly, so keep them lumped in the tail and
		// set the last slot to 0. This only loses resolution when more
		// than cap certain successes exist, which the model never does.
		pb.pm[pb.cap-1] = 0
		return
	}
	// Invert the Add recurrence top-down: pm_old[0] = pm_new[0]/q,
	// pm_old[m] = (pm_new[m] - p*pm_old[m-1]) / q.
	prev := pb.pm[0] / q
	pb.pm[0] = prev
	for m := 1; m < pb.cap; m++ {
		cur := (pb.pm[m] - p*prev) / q
		if cur < 0 {
			cur = 0 // numerical floor
		}
		pb.pm[m] = cur
		prev = cur
	}
	// Tail must absorb the renormalization: recompute as 1 - sum(pm).
	sum := 0.0
	for _, v := range pb.pm {
		sum += v
	}
	pb.tail = 1 - sum
	if pb.tail < 0 {
		pb.tail = 0
	}
}

// ProbAtMost returns P{N <= k} for k < cap. For k >= cap-1 it returns
// 1 - tail when k == cap-1 and 1 for larger k (the tail is P{N >= cap}).
func (pb *PoissonBinomial) ProbAtMost(k int) float64 {
	if k < 0 {
		return 0
	}
	if k >= pb.cap {
		return 1
	}
	sum := 0.0
	for m := 0; m <= k && m < pb.cap; m++ {
		sum += pb.pm[m]
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// ProbAtMostExcluding returns P{N_{-p} <= k}: the probability that at most
// k of the trials other than one with success probability p succeed. It is
// equivalent to Clone + Remove(p) + ProbAtMost(k) but allocation free for
// the hot path when k is small.
func (pb *PoissonBinomial) ProbAtMostExcluding(p float64, k int) float64 {
	p = clamp01(p)
	if k < 0 {
		return 0
	}
	if k >= pb.cap {
		return 1
	}
	q := 1 - p
	if q < 1e-12 {
		// Removing a certain success shifts everything down by one.
		return pb.ProbAtMost(k + 1)
	}
	// Deconvolve only the first k+1 coefficients.
	sum := 0.0
	prev := pb.pm[0] / q
	sum += prev
	for m := 1; m <= k; m++ {
		cur := (pb.pm[m] - p*prev) / q
		if cur < 0 {
			cur = 0
		}
		sum += cur
		prev = cur
	}
	if sum > 1 {
		return 1
	}
	return sum
}

func clamp01(p float64) float64 {
	switch {
	case math.IsNaN(p), p < 0:
		return 0
	case p > 1:
		return 1
	}
	return p
}
