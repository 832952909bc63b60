package geo

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"eflora/internal/rng"
)

func TestDist(t *testing.T) {
	tests := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-2, 0}, Point{2, 0}, 4},
	}
	for _, tt := range tests {
		if got := tt.p.Dist(tt.q); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Dist(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want)
		}
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) {
			return true
		}
		a, b := Point{ax, ay}, Point{bx, by}
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUniformDiscInsideRadius(t *testing.T) {
	r := rng.New(1)
	const radius = 5000.0
	pts := UniformDisc(10000, radius, r)
	if len(pts) != 10000 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.Norm() > radius+1e-9 {
			t.Fatalf("point %v outside radius %v", p, radius)
		}
	}
}

func TestUniformDiscIsAreaUniform(t *testing.T) {
	// Half the points should fall within radius/sqrt(2) (equal areas).
	r := rng.New(2)
	const radius = 1000.0
	pts := UniformDisc(50000, radius, r)
	inner := 0
	for _, p := range pts {
		if p.Norm() <= radius/math.Sqrt2 {
			inner++
		}
	}
	frac := float64(inner) / float64(len(pts))
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("inner-half fraction = %v, want ~0.5", frac)
	}
}

func TestUniformDiscDeterministic(t *testing.T) {
	a := UniformDisc(100, 500, rng.New(9))
	b := UniformDisc(100, 500, rng.New(9))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different deployments at %d", i)
		}
	}
}

func TestGridGatewaysCounts(t *testing.T) {
	for _, g := range []int{0, 1, 2, 3, 4, 5, 9, 16, 25} {
		pts := GridGateways(g, 5000)
		if len(pts) != g {
			t.Errorf("GridGateways(%d) returned %d points", g, len(pts))
		}
	}
}

func TestGridGatewaysSingleAtCenter(t *testing.T) {
	pts := GridGateways(1, 5000)
	if pts[0].Norm() > 1e-9 {
		t.Errorf("single gateway at %v, want center", pts[0])
	}
}

func TestGridGatewaysInsideDisc(t *testing.T) {
	for _, g := range []int{2, 5, 9, 25} {
		for _, p := range GridGateways(g, 5000) {
			if p.Norm() > 5000+1e-6 {
				t.Errorf("gateway %v outside disc (g=%d)", p, g)
			}
		}
	}
}

func TestGridGatewaysDistinct(t *testing.T) {
	for _, g := range []int{2, 4, 9, 25} {
		pts := GridGateways(g, 5000)
		seen := make(map[Point]bool)
		for _, p := range pts {
			if seen[p] {
				t.Errorf("duplicate gateway position %v (g=%d)", p, g)
			}
			seen[p] = true
		}
	}
}

func TestGridGatewaysDeterministic(t *testing.T) {
	a := GridGateways(7, 5000)
	b := GridGateways(7, 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("GridGateways is not deterministic")
		}
	}
}

// TestGridGatewaysRejectsBadRadius checks that a NaN, infinite or
// negative radius yields no gateways. No lattice cell of such a disc
// passes the inside test, so a search that grows the lattice until enough
// cells pass never ends; each call runs on its own goroutine so such a
// search fails the test at a deadline instead of hanging it.
func TestGridGatewaysRejectsBadRadius(t *testing.T) {
	for _, radius := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		for _, g := range []int{1, 4} {
			done := make(chan []Point, 1)
			go func() { done <- GridGateways(g, radius) }()
			select {
			case pts := <-done:
				if pts != nil {
					t.Errorf("GridGateways(%d, %v) = %v, want nil", g, radius, pts)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("GridGateways(%d, %v) did not return within 5 s", g, radius)
			}
		}
	}
}

func TestNeighborCountsSmall(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}, {2, 0}, {100, 100}}
	counts := NeighborCounts(pts, 1.5)
	want := []int{1, 2, 1, 0}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("counts[%d] = %d, want %d (all: %v)", i, counts[i], want[i], counts)
		}
	}
}

func TestNeighborCountsMatchesBruteForce(t *testing.T) {
	r := rng.New(5)
	pts := UniformDisc(300, 100, r)
	const radius = 20.0
	got := NeighborCounts(pts, radius)
	for i, p := range pts {
		want := 0
		for j, q := range pts {
			if i != j && p.Dist(q) <= radius {
				want++
			}
		}
		if got[i] != want {
			t.Fatalf("counts[%d] = %d, brute force says %d", i, got[i], want)
		}
	}
}

func TestNeighborCountsDegenerate(t *testing.T) {
	if c := NeighborCounts(nil, 10); len(c) != 0 {
		t.Error("nil points should give empty counts")
	}
	if c := NeighborCounts([]Point{{0, 0}}, 10); c[0] != 0 {
		t.Error("single point has no neighbors")
	}
	c := NeighborCounts([]Point{{0, 0}, {1, 1}}, 0)
	if c[0] != 0 || c[1] != 0 {
		t.Error("zero radius should count no neighbors")
	}
}

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}.Add(Point{3, -1})
	if p != (Point{4, 1}) {
		t.Errorf("Add = %v", p)
	}
	q := Point{2, -3}.Scale(2)
	if q != (Point{4, -6}) {
		t.Errorf("Scale = %v", q)
	}
}
