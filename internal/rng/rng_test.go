package rng

import (
	"math"
	"math/bits"
	"testing"
)

func TestDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

// TestUint64MatchesReferenceStep pins Uint64 to the xoshiro256** step
// as published, written out statement by statement.
func TestUint64MatchesReferenceStep(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, math.MaxUint64} {
		r := New(seed)
		s := r.s
		for i := 0; i < 1000; i++ {
			want := bits.RotateLeft64(s[1]*5, 7) * 9
			tt := s[1] << 17
			s[2] ^= s[0]
			s[3] ^= s[1]
			s[1] ^= s[2]
			s[0] ^= s[3]
			s[2] ^= tt
			s[3] = bits.RotateLeft64(s[3], 45)
			if got := r.Uint64(); got != want || r.s != s {
				t.Fatalf("seed %d draw %d: Uint64 %#x state %x, reference %#x state %x", seed, i, got, r.s, want, s)
			}
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical outputs out of 100", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	// splitmix64 seeding must avoid the all-zero xoshiro state.
	allZero := true
	for i := 0; i < 10; i++ {
		if r.Uint64() != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("zero seed produced a stuck all-zero stream")
	}
}

func TestFloat64InUnitInterval(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v outside [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(7)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if math.Abs(float64(c)-n/10) > 0.05*n/10 {
			t.Errorf("Intn(10) value %d count = %d, want ~%d", v, c, n/10)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64() = %v < 0", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.01 {
		t.Errorf("ExpFloat64 mean = %v, want ~1", mean)
	}
}

func TestRayleighPowerGainUnitMean(t *testing.T) {
	r := New(13)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.RayleighPowerGain()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.01 {
		t.Errorf("Rayleigh power gain mean = %v, want ~1", mean)
	}
}

// TestRayleighPowerGainsMatchRawDraws pins the shared fading expression:
// the bulk fill, the one-at-a-time draw and RayleighGainOf over raw
// draws consume the same stream and give the same gains, bit for bit.
func TestRayleighPowerGainsMatchRawDraws(t *testing.T) {
	bulk := make([]float64, 1000)
	New(5).RayleighPowerGains(bulk)
	one, raw := New(5), New(5)
	for i, want := range bulk {
		if got := one.RayleighPowerGain(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d: RayleighPowerGain %v, RayleighPowerGains %v", i, got, want)
		}
		if got := RayleighGainOf(raw.Uint53()); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d: RayleighGainOf %v, RayleighPowerGains %v", i, got, want)
		}
	}
}

// TestRayleighMissBound checks the miss bound's contract on random links
// and on the edge cases: every raw draw below M, and so the largest one,
// M−1, puts the exact scaled gain below the threshold.
func TestRayleighMissBound(t *testing.T) {
	const thr = 1.2e-13 // SF7's sensitivity, −123 dBm, in mW
	check := func(name string, scale float64) uint64 {
		t.Helper()
		m := RayleighMissBound(scale, thr)
		if m > 1<<53 {
			t.Fatalf("%s: scale %g: bound %d exceeds 2^53", name, scale, m)
		}
		if m > 0 {
			if p := scale * RayleighGainOf(m-1); !(p < thr) {
				t.Errorf("%s: scale %g: draw M-1 = %d gives %g, not below %g", name, scale, m-1, p, thr)
			}
		}
		return m
	}
	if m := check("zero scale", 0); m != 1<<53 {
		t.Errorf("zero scale: bound %d, want 2^53 (every draw misses)", m)
	}
	if m := check("subnormal scale", 1e-310); m != 1<<53 {
		t.Errorf("subnormal scale: bound %d, want 2^53", m)
	}
	tiny := math.SmallestNonzeroFloat64
	if !math.IsInf(thr/tiny, 1) {
		t.Fatalf("sens/(tp·gain) = %g, want the quotient to overflow", thr/tiny)
	}
	if m := check("quotient overflows", tiny); m != 1<<53 {
		t.Errorf("sens/(tp·gain) = +Inf: bound %d, want 2^53", m)
	}
	if m := check("far above sensitivity", thr*1e20); m != 0 {
		t.Errorf("scale 1e20 above sensitivity: bound %d, want 0", m)
	}
	// The largest gain a draw can produce is 53·ln 2 ≈ 36.74: thresholds
	// just below and above it put M at the top of the range.
	top := 53 * math.Ln2
	for _, x := range []float64{top * (1 - 1e-12), top, top * (1 + 1e-12), 30, 37.5} {
		check("near the largest gain", thr/x)
	}
	r := New(11)
	for i := 0; i < 20000; i++ {
		// x = thr/scale spans 1e-18 .. 1e3: from links that never miss
		// to links that always do.
		scale := thr / math.Pow(10, r.Float64()*21-18)
		m := check("random", scale)
		if m > 1 {
			if below := r.Uint64() % m; !(scale*RayleighGainOf(below) < thr) {
				t.Errorf("random: scale %g: draw %d < M = %d is not below %g", scale, below, m, thr)
			}
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(17)
	sum, sumSq := 0.0, 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(29)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid or duplicate element %d", v)
		}
		seen[v] = true
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkExpFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.ExpFloat64()
	}
	_ = sink
}
