package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"eflora/internal/rng"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Mean != 2.5 || s.Sum != 10 {
		t.Errorf("Summarize = %+v", s)
	}
	wantStd := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 4)
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Errorf("Std = %v, want %v", s.Std, wantStd)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Min != 0 || s.Max != 0 {
		t.Errorf("Summarize(nil) = %+v, want zero", s)
	}
}

func TestSummarizeIgnoresNaN(t *testing.T) {
	s := Summarize([]float64{1, math.NaN(), 3})
	if s.N != 2 || s.Mean != 2 {
		t.Errorf("Summarize with NaN = %+v", s)
	}
}

func TestMinMean(t *testing.T) {
	if got := Min([]float64{3, 1, 2}); got != 1 {
		t.Errorf("Min = %v", got)
	}
	if got := Min(nil); !math.IsInf(got, 1) {
		t.Errorf("Min(nil) = %v, want +Inf", got)
	}
	if got := Mean([]float64{2, 4}); got != 3 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); !math.IsNaN(got) {
		t.Errorf("Mean(nil) = %v, want NaN", got)
	}
}

func TestJainIndexExtremes(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal shares Jain = %v, want 1", got)
	}
	got := JainIndex([]float64{1, 0, 0, 0})
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("single-share Jain = %v, want 0.25", got)
	}
	if got := JainIndex(nil); got != 0 {
		t.Errorf("Jain(nil) = %v", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 0 {
		t.Errorf("Jain(zeros) = %v", got)
	}
}

func TestJainIndexBounds(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		n := 1 + int(nRaw)%32
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		j := JainIndex(xs)
		return j >= 1/float64(n)-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestECDFAt(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	tests := []struct {
		x    float64
		want float64
	}{
		{0.5, 0},
		{1, 0.25},
		{2, 0.75},
		{2.5, 0.75},
		{3, 1},
		{10, 1},
	}
	for _, tt := range tests {
		if got := e.At(tt.x); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestECDFAtEmpty(t *testing.T) {
	if got := NewECDF(nil).At(1); got != 0 {
		t.Errorf("empty ECDF At = %v", got)
	}
}

func TestECDFMonotone(t *testing.T) {
	r := rng.New(1)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	e := NewECDF(xs)
	prev := 0.0
	for x := -4.0; x <= 4; x += 0.05 {
		p := e.At(x)
		if p < prev {
			t.Fatalf("ECDF decreasing at %v", x)
		}
		prev = p
	}
}

func TestQuantile(t *testing.T) {
	e := NewECDF([]float64{10, 20, 30, 40, 50})
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 10},
		{0.25, 20},
		{0.5, 30},
		{1, 50},
		{-0.1, 10},
		{1.5, 50},
	}
	for _, tt := range tests {
		if got := e.Quantile(tt.q); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if got := NewECDF(nil).Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty Quantile = %v, want NaN", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	e := NewECDF([]float64{0, 10})
	if got := e.Quantile(0.5); math.Abs(got-5) > 1e-12 {
		t.Errorf("Quantile(0.5) = %v, want 5", got)
	}
}

func TestECDFPoints(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	e := NewECDF(xs)
	px, pp := e.Points(10)
	if len(px) != 10 || len(pp) != 10 {
		t.Fatalf("Points lengths = %d, %d", len(px), len(pp))
	}
	if !sort.Float64sAreSorted(px) || !sort.Float64sAreSorted(pp) {
		t.Error("Points should be sorted")
	}
	if pp[9] != 1 {
		t.Errorf("last CDF point = %v, want 1", pp[9])
	}
	if gx, gp := e.Points(0); gx != nil || gp != nil {
		t.Error("Points(0) should be nil")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7}
	if got := Percentile(xs, 0.5); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}
