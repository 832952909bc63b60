package alloc

import (
	"math"
	"sort"
	"time"

	"eflora/internal/geo"
	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/par"
	"eflora/internal/rng"
)

// HierOptions configures the hierarchical allocator.
type HierOptions struct {
	// Cell configures the per-cell exact greedy. Zero fields take the
	// EF-LoRa defaults, except that on the multi-cell path an unset
	// Starts/MaxPasses is trimmed (2 starts, 4 passes): a cell is a small,
	// spatially coherent slice of the network, where the extra starts and
	// long convergence tails buy little but cost the fan-out dearly.
	Cell Options
	// MaxCellDevices is the quadtree leaf capacity — the largest network
	// the exact greedy is asked to solve in one piece (default 256).
	// Networks at or under this size bypass partitioning entirely and run
	// the plain greedy, so small deployments lose nothing.
	MaxCellDevices int
}

const (
	// reconcilePasses bounds the boundary-reconcile sweeps over each cell
	// seam after the cells are merged. Each pass re-runs the single-device
	// greedy for every device near the seam against the two-cell
	// neighborhood via the delta-based Incremental path, stopping early
	// when a pass commits no move.
	reconcilePasses = 2
	// boundaryFrac classifies a device as a boundary device when it lies
	// within this fraction of its cell's width (height) of a cell side
	// that is not also a side of the quadtree root.
	boundaryFrac = 0.1
)

func (o HierOptions) withDefaults() HierOptions {
	if o.MaxCellDevices <= 0 {
		o.MaxCellDevices = 256
	}
	return o
}

// cellOptions derives the per-cell greedy options for the multi-cell path.
func (o HierOptions) cellOptions() Options {
	c := o.Cell
	if c.Starts <= 0 {
		c.Starts = 2
	}
	if c.MaxPasses <= 0 {
		c.MaxPasses = 4
	}
	return c
}

// HierReport describes one hierarchical allocation run.
type HierReport struct {
	// Cells is the number of quadtree leaf cells allocated (1 when the
	// network was small enough to bypass partitioning).
	Cells int
	// BoundaryDevices counts the devices visited by the reconcile sweeps.
	BoundaryDevices int
	// ReconcileMoves counts the committed boundary reassignments.
	ReconcileMoves int
	// MinEE is the final network minimum energy efficiency (bits/J).
	MinEE float64
	// Elapsed is the wall-clock allocation time.
	Elapsed time.Duration
}

// Hierarchical scales the EF-LoRa greedy to networks far past the exact
// algorithm's reach: it partitions the deployment into spatial cells with
// a deterministic quadtree (geo.QuadtreePartition), solves each cell with
// the exact greedy concurrently, merges the per-cell allocations, and
// repairs the seams by re-running the single-device greedy for boundary
// devices against the full network (Incremental.ReassignDevice, whose
// delta-based evaluator updates make each repair O(group) instead of
// O(N·G)).
//
// Cells are solved on runtime.GOMAXPROCS(0) goroutines, each cell's
// greedy scanning its candidates sequentially. The result is bit-identical
// at any GOMAXPROCS: cells are independent sub-problems written into
// index-addressed slots, and the reconcile sweep is sequential in
// ascending device order.
type Hierarchical struct {
	opts HierOptions
}

// NewHierarchical returns a hierarchical allocator with the given options.
func NewHierarchical(opts HierOptions) *Hierarchical {
	return &Hierarchical{opts: opts.withDefaults()}
}

// Allocate implements Allocator.
func (h *Hierarchical) Allocate(net *model.Network, p model.Params, r *rng.RNG) (model.Allocation, error) {
	alloc, _, err := h.AllocateWithReport(net, p, r)
	return alloc, err
}

// AllocateWithReport runs the hierarchical allocation and returns its
// diagnostics alongside the allocation.
func (h *Hierarchical) AllocateWithReport(net *model.Network, p model.Params, r *rng.RNG) (model.Allocation, HierReport, error) {
	//eflora:nondeterminism-ok HierReport.Elapsed is a wall-clock diagnostic; it never feeds the allocation
	start := time.Now()
	var rep HierReport
	if err := p.Validate(); err != nil {
		return model.Allocation{}, rep, err
	}
	if err := net.Validate(p); err != nil {
		return model.Allocation{}, rep, err
	}

	// Small networks: the exact greedy is affordable and strictly better,
	// so hierarchical degrades to it bit-for-bit.
	if net.N() <= h.opts.MaxCellDevices {
		ef := NewEFLoRa(h.opts.Cell)
		a, efRep, err := ef.AllocateWithReport(net, p, r)
		if err != nil {
			return model.Allocation{}, rep, err
		}
		rep.Cells = 1
		rep.MinEE = efRep.FinalMinEE
		//eflora:nondeterminism-ok HierReport.Elapsed is a wall-clock diagnostic; it never feeds the allocation
		rep.Elapsed = time.Since(start)
		return a, rep, nil
	}

	part := geo.QuadtreePartition(net.Devices, geo.QuadtreeOptions{MaxLeaf: h.opts.MaxCellDevices})
	rep.Cells = len(part.Cells)

	// Solve every cell independently. Each cell sees only its own devices
	// (against the full gateway set), so the sub-problems are embarrassingly
	// parallel; slots keep the merge order fixed.
	cellAllocs := make([]model.Allocation, len(part.Cells))
	errs := make([]error, len(part.Cells))
	cellOpts := h.opts.cellOptions()
	par.For(len(part.Cells), func(ci int) {
		sub := net.Subset(part.Cells[ci].Members)
		ef := NewEFLoRa(cellOpts)
		cellAllocs[ci], errs[ci] = ef.Allocate(sub, p, nil)
	})
	if err := par.FirstErr(errs); err != nil {
		return model.Allocation{}, rep, err
	}

	merged := model.NewAllocation(net.N(), p.Plan)
	for ci, cell := range part.Cells {
		a := cellAllocs[ci]
		for j, i := range cell.Members {
			merged.SF[i] = a.SF[j]
			merged.TPdBm[i] = a.TPdBm[j]
			merged.Channel[i] = a.Channel[j]
		}
	}

	// Boundary reconcile: devices near a cell seam were allocated blind to
	// their neighbors across it. For every pair of adjacent cells, re-run
	// the single-device greedy for the devices near the shared seam
	// against the two-cell neighborhood (Incremental over the pair's
	// union), sweeping in ascending device order until a pass commits
	// nothing. The neighborhood — not the full network — is the evaluation
	// scope on purpose: a candidate probe costs O(group members), and
	// co-group devices many cells away contribute negligible collision
	// exposure at the seam's gateways while making every probe O(N/48).
	if err := h.reconcileSeams(net, p, part, merged, &rep); err != nil {
		return model.Allocation{}, rep, err
	}

	minEE, err := EvaluateMinEE(net, p, merged, h.opts.Cell.withDefaults().Mode)
	if err != nil {
		return model.Allocation{}, rep, err
	}
	rep.MinEE = minEE
	//eflora:nondeterminism-ok HierReport.Elapsed is a wall-clock diagnostic; it never feeds the allocation
	rep.Elapsed = time.Since(start)
	return merged, rep, nil
}

// seam is one pair of adjacent cells and the devices near their shared
// side.
type seam struct {
	a, b     int
	boundary []int
}

// reconcileSeams repairs every cell seam of the merged allocation in
// place. Seams are visited in ascending (a, b) cell order and each seam's
// sweep is sequential, so the result is independent of GOMAXPROCS.
func (h *Hierarchical) reconcileSeams(net *model.Network, p model.Params, part geo.Partition, merged model.Allocation, rep *HierReport) error {
	seams := findSeams(net.Devices, part, boundaryFrac)
	counted := make(map[int]bool)
	for _, s := range seams {
		for _, i := range s.boundary {
			if !counted[i] {
				counted[i] = true
				rep.BoundaryDevices++
			}
		}
	}
	for _, s := range seams {
		if len(s.boundary) == 0 {
			continue
		}
		// The pair's union, ascending: local index j in sub maps to global
		// index members[j].
		members := mergeSorted(part.Cells[s.a].Members, part.Cells[s.b].Members)
		sub := net.Subset(members)
		local := make(map[int]int, len(members))
		for j, g := range members {
			local[g] = j
		}
		subAlloc := model.Allocation{
			SF:      make([]lora.SF, len(members)),
			TPdBm:   make([]float64, len(members)),
			Channel: make([]int, len(members)),
		}
		for j, g := range members {
			subAlloc.SF[j] = merged.SF[g]
			subAlloc.TPdBm[j] = merged.TPdBm[g]
			subAlloc.Channel[j] = merged.Channel[g]
		}
		inc, err := NewIncremental(sub, p, subAlloc, h.opts.Cell)
		if err != nil {
			return err
		}
		for pass := 0; pass < reconcilePasses; pass++ {
			moves := 0
			for _, g := range s.boundary {
				changed, err := inc.ReassignDevice(local[g])
				if err != nil {
					return err
				}
				if changed {
					moves++
				}
			}
			rep.ReconcileMoves += moves
			inc.Refresh()
			if moves == 0 {
				break
			}
		}
		repaired := inc.Allocation()
		for j, g := range members {
			merged.SF[g] = repaired.SF[j]
			merged.TPdBm[g] = repaired.TPdBm[j]
			merged.Channel[g] = repaired.Channel[j]
		}
	}
	return nil
}

// findSeams enumerates adjacent cell pairs (a < b, ascending) and the
// devices within frac of each pair's shared side.
func findSeams(pts []geo.Point, part geo.Partition, frac float64) []seam {
	var seams []seam
	for a := 0; a < len(part.Cells); a++ {
		for b := a + 1; b < len(part.Cells); b++ {
			ra, rb := part.Cells[a].Rect, part.Cells[b].Rect
			if !rectsAdjacent(ra, rb) {
				continue
			}
			s := seam{a: a, b: b}
			s.boundary = append(s.boundary, nearSeam(pts, part.Cells[a], rb, frac)...)
			s.boundary = append(s.boundary, nearSeam(pts, part.Cells[b], ra, frac)...)
			sort.Ints(s.boundary)
			seams = append(seams, s)
		}
	}
	return seams
}

// rectsAdjacent reports whether two cell rectangles share a boundary
// segment of positive length. Quadtree rects share exact float values at
// seams (both sides derive from the same midpoint computation), so the
// equality comparisons are exact.
func rectsAdjacent(a, b geo.Rect) bool {
	overlap := func(lo1, hi1, lo2, hi2 float64) bool {
		return math.Min(hi1, hi2) > math.Max(lo1, lo2)
	}
	if (a.MaxX == b.MinX || b.MaxX == a.MinX) && overlap(a.MinY, a.MaxY, b.MinY, b.MaxY) {
		return true
	}
	if (a.MaxY == b.MinY || b.MaxY == a.MinY) && overlap(a.MinX, a.MaxX, b.MinX, b.MaxX) {
		return true
	}
	return false
}

// nearSeam returns cell members within frac of the cell's extent of the
// side(s) it shares with the neighbor rect.
func nearSeam(pts []geo.Point, cell geo.Cell, neighbor geo.Rect, frac float64) []int {
	r := cell.Rect
	w, ht := r.Width()*frac, r.Height()*frac
	var out []int
	for _, i := range cell.Members {
		p := pts[i]
		near := (r.MaxX == neighbor.MinX && r.MaxX-p.X <= w) ||
			(r.MinX == neighbor.MaxX && p.X-r.MinX <= w) ||
			(r.MaxY == neighbor.MinY && r.MaxY-p.Y <= ht) ||
			(r.MinY == neighbor.MaxY && p.Y-r.MinY <= ht)
		if near {
			out = append(out, i)
		}
	}
	return out
}

// mergeSorted merges two ascending index slices into one ascending slice.
func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

var _ Allocator = (*Hierarchical)(nil)
