package alloc

import (
	"fmt"
	"strings"
	"testing"

	"eflora/internal/golden"
	"eflora/internal/model"
	"eflora/internal/rng"
)

// allocDigest renders an allocation as a golden digest line.
func allocDigest(label string, a model.Allocation) string {
	sfs := make([]int, len(a.SF))
	for i, s := range a.SF {
		sfs[i] = int(s)
	}
	return fmt.Sprintf("%s %s\n", label, golden.Digest(
		golden.Ints(sfs),
		golden.Floats(a.TPdBm),
		golden.Ints(a.Channel),
	))
}

// efloraGoldenLine runs the flat greedy and renders its allocation digest
// plus every deterministic Report field, floats at bit precision.
func efloraGoldenLine(t *testing.T, label string, net *model.Network, p model.Params, opts Options, r *rng.RNG) string {
	t.Helper()
	a, rep, err := NewEFLoRa(opts).AllocateWithReport(net, p, r)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	line := strings.TrimSuffix(allocDigest(label, a), "\n")
	return fmt.Sprintf("%s passes=%d improvements=%d tried=%d initial=%s final=%s\n",
		line, rep.Passes, rep.Improvements, rep.CandidatesTried,
		golden.Float(rep.InitialMinEE), golden.Float(rep.FinalMinEE))
}

// TestEFLoRaGolden pins the flat greedy bit-for-bit: the allocation and
// the Report's pass, commit and candidate counts with the bracketing
// min-EE values, across sizes, seeds, option variants and parameter
// variants, plus a two-pass Incremental.ReassignDevice sweep. A change to
// the candidate scan, its pruning or the commit order that alters any
// device's assignment, or even how many candidates the greedy enumerates,
// fails here.
func TestEFLoRaGolden(t *testing.T) {
	p := model.DefaultParams()
	var out strings.Builder
	sizes := []struct{ devices, gateways int }{{30, 1}, {60, 2}, {100, 3}, {150, 3}}
	for _, sz := range sizes {
		for seed := uint64(1); seed <= 4; seed++ {
			net := testNetwork(sz.devices, sz.gateways, seed)
			label := fmt.Sprintf("eflora-n%d-g%d-s%d", sz.devices, sz.gateways, seed)
			out.WriteString(efloraGoldenLine(t, label, net, p, Options{}, rng.New(seed)))
		}
	}

	tp14 := 14.0
	optVariants := []struct {
		name string
		opts Options
	}{
		{"fixedtp14", Options{FixedTPdBm: &tp14}},
		{"randomorder", Options{RandomOrder: true}},
		{"starts1", Options{Starts: 1}},
	}
	paramVariants := []struct {
		name string
		edit func(*model.Params)
	}{
		{"throughput", func(p *model.Params) { p.Objective = model.ObjectiveThroughput }},
		{"capacity2", func(p *model.Params) { p.GatewayCapacity = 2 }},
	}
	for _, sz := range sizes[1:] {
		net := testNetwork(sz.devices, sz.gateways, 5)
		for _, v := range optVariants {
			label := fmt.Sprintf("eflora-n%d-g%d-%s", sz.devices, sz.gateways, v.name)
			out.WriteString(efloraGoldenLine(t, label, net, p, v.opts, rng.New(5)))
		}
		for _, v := range paramVariants {
			pv := p
			v.edit(&pv)
			label := fmt.Sprintf("eflora-n%d-g%d-%s", sz.devices, sz.gateways, v.name)
			out.WriteString(efloraGoldenLine(t, label, net, pv, Options{}, rng.New(5)))
		}
	}

	// Reassignment sweep: two passes over every device of an RS-LoRa
	// start, flushing capacity staleness between passes as the seam
	// reconcile does.
	net := testNetwork(120, 3, 6)
	start, err := RSLoRa{}.Allocate(net, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(net, p, start, Options{})
	if err != nil {
		t.Fatal(err)
	}
	moves := 0
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < net.N(); i++ {
			changed, err := inc.ReassignDevice(i)
			if err != nil {
				t.Fatal(err)
			}
			if changed {
				moves++
			}
		}
		inc.Refresh()
	}
	line := strings.TrimSuffix(allocDigest("reassign-n120-g3-2pass", inc.Allocation()), "\n")
	fmt.Fprintf(&out, "%s moves=%d\n", line, moves)

	golden.Check(t, "testdata/golden_eflora.txt", out.String(), *update)
}
