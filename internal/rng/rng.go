// Package rng provides a small, fast, deterministic pseudo-random number
// generator (xoshiro256**) plus the distributions the simulator and
// deployment generators need: uniform, exponential, normal, Poisson and
// Rayleigh-fading power gains.
//
// Every stochastic component in this repository takes an explicit *RNG so
// experiments are exactly reproducible from a single seed, with no global
// state shared between concurrently running simulations.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256** generator. It is not safe for concurrent use; give
// each goroutine its own instance via Split.
type RNG struct {
	s [4]uint64
}

// New returns an RNG seeded from a single 64-bit seed via splitmix64, which
// guarantees a well-mixed non-zero internal state for any seed (including 0).
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	return r
}

// splitmix64 advances the given state and returns the next output; it is the
// recommended seeding procedure for the xoshiro family.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly random bits. The xoshiro256**
// step is written as one assignment of the new state so the compiler
// inlines it; TestUint64MatchesReferenceStep pins it to the published
// statement-by-statement form.
func (r *RNG) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	s2 ^= s0
	s3 ^= s1
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Uint53 returns the next 53 uniformly random bits: the raw draw that
// Float64 scales to [0, 1) and RayleighGainOf maps to a fading gain.
func (r *RNG) Uint53() uint64 { return r.Uint64() >> 11 }

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint53()) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling would be overkill;
	// modulo bias at n << 2^64 is negligible for simulation purposes, but
	// we reject the biased tail anyway to keep the distribution exact.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// ExpFloat64 returns an exponentially distributed value with rate 1 (mean
// 1), via inverse-transform sampling.
func (r *RNG) ExpFloat64() float64 {
	// 1-Float64() is in (0, 1], avoiding log(0).
	return -math.Log(1 - r.Float64())
}

// RayleighPowerGain returns a power gain |g|^2 under Rayleigh fading with
// unit mean power, i.e. an Exp(1) variate (the paper models g ~ exp(1)).
func (r *RNG) RayleighPowerGain() float64 {
	return r.ExpFloat64()
}

// RayleighPowerGains fills dst with independent Rayleigh-fading power
// gains, consuming exactly len(dst) draws. It is bit-identical to
// calling RayleighPowerGain once per element, which fades a whole window
// in one pass without changing the random stream.
func (r *RNG) RayleighPowerGains(dst []float64) {
	for i := range dst {
		dst[i] = RayleighGainOf(r.Uint53())
	}
}

// RayleighGainOf maps one raw draw m from Uint53 to its Rayleigh power
// gain −ln(1 − m·2⁻⁵³): RayleighGainOf(r.Uint53()) is the gain
// r.RayleighPowerGain() would have drawn. A driver that only needs to
// know whether a scaled gain clears a threshold can compare m against
// RayleighMissBound first and take the logarithm only above it.
func RayleighGainOf(m uint64) float64 {
	return -math.Log(1 - float64(m)/(1<<53))
}

// missMargin is the relative slack RayleighMissBound leaves below the
// exact crossing. It covers the rounding of the division, Expm1, the
// logarithm and the final product, a few units in the 16th digit each,
// many times over.
const missMargin = 1e-9

// RayleighMissBound returns the raw-draw bound M for a gain scaled by
// scale against threshold: every raw draw m < M has
// scale·RayleighGainOf(m) < threshold in float64 arithmetic. Draws at or
// above M may land on either side and need the exact product. M is
// ⌊2⁵³·P⌋ for P = 1 − e^(−x), the probability that an Exp(1) gain falls
// below x = (threshold/scale)·(1 − missMargin). M is 0 when no draw is
// certainly below (a strong or unusable scale) and 2⁵³, every draw, when
// x exceeds the largest gain a draw can produce (a zero or subnormal
// scale, whose quotient overflows to +Inf).
func RayleighMissBound(scale, threshold float64) uint64 {
	x := threshold / scale * (1 - missMargin)
	if !(x > 0) {
		return 0
	}
	return uint64(math.Floor(-math.Expm1(-x) * (1 << 53)))
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Shuffle permutes the integers [0, n) uniformly (Fisher–Yates) and calls
// swap for each exchange.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
