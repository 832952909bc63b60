package alloc

import (
	"flag"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"eflora/internal/golden"
	"eflora/internal/model"
	"eflora/internal/rng"
)

var update = flag.Bool("update", false, "rewrite golden files")

// hierMinEETolerance is the pinned multi-cell quality bound: the
// hierarchical allocator's min-EE must stay within 5% of the exact
// greedy's on the differential suite. Measured headroom (n=500, forced
// 13-16 cells, seeds 1-6): ratios 0.985-0.995; at congested scale the
// hierarchical result routinely *exceeds* the exact greedy's single
// trajectory (n=2000: ratio 1.08), so only the lower bound is pinned.
const hierMinEETolerance = 0.95

// TestHierarchicalSingleCellBitExact pins the small-network degradation:
// a network at or under MaxCellDevices must bypass partitioning and
// reproduce the exact greedy bit-for-bit.
func TestHierarchicalSingleCellBitExact(t *testing.T) {
	net := testNetwork(120, 3, 51)
	p := model.DefaultParams()
	exact, err := NewEFLoRa(Options{}).Allocate(net, p, rng.New(52))
	if err != nil {
		t.Fatal(err)
	}
	h := NewHierarchical(HierOptions{})
	got, rep, err := h.AllocateWithReport(net, p, rng.New(52))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cells != 1 {
		t.Fatalf("single-cell network partitioned into %d cells", rep.Cells)
	}
	for i := 0; i < net.N(); i++ {
		if exact.SF[i] != got.SF[i] || exact.TPdBm[i] != got.TPdBm[i] || exact.Channel[i] != got.Channel[i] {
			t.Fatalf("device %d diverged from exact greedy: (%v,%v,%d) vs (%v,%v,%d)",
				i, exact.SF[i], exact.TPdBm[i], exact.Channel[i],
				got.SF[i], got.TPdBm[i], got.Channel[i])
		}
	}
}

// TestHierarchicalMinEEWithinTolerance is the multi-cell differential: on
// networks forced into many cells, the hierarchical min-EE must stay
// within the pinned tolerance of the exact greedy across seeds.
func TestHierarchicalMinEEWithinTolerance(t *testing.T) {
	p := model.DefaultParams()
	for seed := uint64(1); seed <= 5; seed++ {
		net := testNetwork(500, 4, seed)
		exact, err := NewEFLoRa(Options{}).Allocate(net, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		exactEE, err := EvaluateMinEE(net, p, exact, model.ModeExact)
		if err != nil {
			t.Fatal(err)
		}
		h := NewHierarchical(HierOptions{MaxCellDevices: 100})
		got, rep, err := h.AllocateWithReport(net, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cells < 2 {
			t.Fatalf("seed %d: expected a multi-cell partition, got %d cells", seed, rep.Cells)
		}
		gotEE, err := EvaluateMinEE(net, p, got, model.ModeExact)
		if err != nil {
			t.Fatal(err)
		}
		if gotEE < hierMinEETolerance*exactEE {
			t.Errorf("seed %d: hierarchical min-EE %v below %.2f x exact %v",
				seed, gotEE, hierMinEETolerance, exactEE)
		}
		if rep.MinEE != gotEE {
			t.Errorf("seed %d: report min-EE %v != evaluated %v", seed, rep.MinEE, gotEE)
		}
	}
}

// allocateAtProcs runs a forced multi-cell hierarchical allocation with
// runtime.GOMAXPROCS set to procs, which sizes the cell fan-out (0 keeps
// the current setting), and restores the previous setting afterwards.
func allocateAtProcs(t *testing.T, net *model.Network, p model.Params, procs int) model.Allocation {
	t.Helper()
	if procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	a, err := NewHierarchical(HierOptions{MaxCellDevices: 100}).Allocate(net, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestHierarchicalBitIdenticalAcrossParallelism pins the determinism
// contract of the cell fan-out: cells write into index-addressed slots and
// the seam reconcile is sequential, so the allocation is bit-identical at
// any worker count.
func TestHierarchicalBitIdenticalAcrossParallelism(t *testing.T) {
	net := testNetwork(600, 4, 93)
	p := model.DefaultParams()
	base := allocateAtProcs(t, net, p, 1)
	for _, workers := range []int{2, 4, 0} {
		got := allocateAtProcs(t, net, p, workers)
		for i := 0; i < net.N(); i++ {
			if base.SF[i] != got.SF[i] || base.TPdBm[i] != got.TPdBm[i] || base.Channel[i] != got.Channel[i] {
				t.Fatalf("GOMAXPROCS %d: device %d diverged: (%v,%v,%d) vs (%v,%v,%d)",
					workers, i, base.SF[i], base.TPdBm[i], base.Channel[i],
					got.SF[i], got.TPdBm[i], got.Channel[i])
			}
		}
	}
}

// TestHierarchicalGoldenDeterminism pins the multi-cell allocation
// bit-for-bit across releases, at sequential and default parallelism. A
// change to the quadtree, the per-cell greedy, the merge order or the seam
// reconcile that alters any device's assignment fails here.
func TestHierarchicalGoldenDeterminism(t *testing.T) {
	net := testNetwork(600, 4, 93)
	p := model.DefaultParams()
	var out strings.Builder
	for _, workers := range []int{1, 0} {
		a := allocateAtProcs(t, net, p, workers)
		out.WriteString(allocDigest(fmt.Sprintf("hier-600dev-parallelism-%d", workers), a))
	}
	golden.Check(t, "testdata/golden_hier.txt", out.String(), *update)
}

// TestHierarchicalReportDiagnostics sanity-checks the run report on a
// forced multi-cell network.
func TestHierarchicalReportDiagnostics(t *testing.T) {
	net := testNetwork(500, 4, 7)
	p := model.DefaultParams()
	_, rep, err := NewHierarchical(HierOptions{MaxCellDevices: 100}).AllocateWithReport(net, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cells < 2 {
		t.Errorf("Cells = %d, want >= 2", rep.Cells)
	}
	if rep.BoundaryDevices <= 0 || rep.BoundaryDevices >= net.N() {
		t.Errorf("BoundaryDevices = %d, want in (0, %d)", rep.BoundaryDevices, net.N())
	}
	if rep.MinEE <= 0 {
		t.Errorf("MinEE = %v, want > 0", rep.MinEE)
	}
	if rep.Elapsed <= 0 {
		t.Errorf("Elapsed = %v, want > 0", rep.Elapsed)
	}
}

// TestHierarchicalValidates mirrors the other allocators' input checking.
func TestHierarchicalValidates(t *testing.T) {
	p := model.DefaultParams()
	h := NewHierarchical(HierOptions{})
	if _, err := h.Allocate(&model.Network{}, p, nil); err == nil {
		t.Error("empty network accepted")
	}
	p.GatewayCapacity = -1
	if _, err := h.Allocate(testNetwork(10, 1, 1), p, nil); err == nil {
		t.Error("invalid params accepted")
	}
}
