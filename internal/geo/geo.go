// Package geo provides the 2-D geometry and deployment generators used to
// lay out LoRa end devices and gateways: uniform-in-disc device placement
// and the meshed (grid) gateway placement the paper's evaluation describes.
package geo

import (
	"math"
	"sort"

	"eflora/internal/rng"
)

// Point is a position in meters on the deployment plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance in meters between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Norm returns the distance from the origin.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// UniformDisc places n points uniformly at random inside a disc of the
// given radius centered at the origin, matching the paper's end-device
// deployment (uniform within a 5 km-radius disc).
func UniformDisc(n int, radius float64, r *rng.RNG) []Point {
	pts := make([]Point, n)
	for i := range pts {
		// Inverse-CDF radial sampling: r = R*sqrt(u) is uniform in area.
		rad := radius * math.Sqrt(r.Float64())
		theta := 2 * math.Pi * r.Float64()
		pts[i] = Point{X: rad * math.Cos(theta), Y: rad * math.Sin(theta)}
	}
	return pts
}

// GridGateways places g gateways deterministically inside a disc of the
// given radius following the paper's evaluation setup: the region is
// meshed and gateways sit on the mesh cross positions, uniformly spread
// within the coverage. One gateway is placed at the center; multiple
// gateways are the g grid crossings nearest the center of a k x k lattice
// scaled to the disc's inscribed square. It returns nil when g <= 0 or
// the radius is NaN, infinite or negative: no lattice cell lies inside
// such a disc.
func GridGateways(g int, radius float64) []Point {
	if g <= 0 || !(radius >= 0) || math.IsInf(radius, 1) {
		return nil
	}
	if g == 1 {
		return []Point{{}}
	}
	// Mesh the disc's bounding square into k x k cells and use the cell
	// centers that fall inside the disc, growing k until at least g
	// candidates exist; keep the g closest to the center (ties broken by
	// angle for determinism). Cell centers keep gateways strictly inside
	// the coverage area — lattice corner points would land on the disc
	// boundary itself.
	var candidates []Point
	for k := int(math.Ceil(math.Sqrt(float64(g)))); len(candidates) < g; k++ {
		candidates = candidates[:0]
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				p := Point{
					X: -radius + (2*float64(i)+1)*radius/float64(k),
					Y: -radius + (2*float64(j)+1)*radius/float64(k),
				}
				if p.Norm() <= radius {
					candidates = append(candidates, p)
				}
			}
		}
	}
	sort.Slice(candidates, func(a, b int) bool {
		da, db := candidates[a].Norm(), candidates[b].Norm()
		if da != db {
			return da < db
		}
		aa := math.Atan2(candidates[a].Y, candidates[a].X)
		ab := math.Atan2(candidates[b].Y, candidates[b].X)
		if aa != ab {
			return aa < ab
		}
		if candidates[a].X != candidates[b].X {
			return candidates[a].X < candidates[b].X
		}
		return candidates[a].Y < candidates[b].Y
	})
	return candidates[:g]
}

// NeighborCounts returns, for each point, how many other points lie within
// the given radius. The allocator uses this for its density-first device
// ordering. The implementation uses a uniform grid so it stays near O(n)
// for the paper's 5000-device deployments.
func NeighborCounts(pts []Point, radius float64) []int {
	counts := make([]int, len(pts))
	if radius <= 0 || len(pts) < 2 {
		return counts
	}
	cell := radius
	type key struct{ cx, cy int }
	grid := make(map[key][]int, len(pts))
	keyOf := func(p Point) key {
		return key{int(math.Floor(p.X / cell)), int(math.Floor(p.Y / cell))}
	}
	for i, p := range pts {
		k := keyOf(p)
		grid[k] = append(grid[k], i)
	}
	r2 := radius * radius
	for i, p := range pts {
		k := keyOf(p)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range grid[key{k.cx + dx, k.cy + dy}] {
					if j == i {
						continue
					}
					ddx, ddy := p.X-pts[j].X, p.Y-pts[j].Y
					if ddx*ddx+ddy*ddy <= r2 {
						counts[i]++
					}
				}
			}
		}
	}
	return counts
}
