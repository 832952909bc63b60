package model

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"eflora/internal/geo"
	"eflora/internal/golden"
	"eflora/internal/lora"
	"eflora/internal/rng"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenEvaluator pins the analytical model's outputs to bit-exact
// digests: the EE vector of a fresh evaluator, a deterministic sequence
// of MinEEIf candidate probes, and the EE vector after a burst of
// committed SetDevice reassignments. The evaluator's scratch-buffer and
// closure-elimination optimizations must not move a single bit here.
func TestGoldenEvaluator(t *testing.T) {
	r := rng.New(99)
	net := &Network{
		Devices:  geo.UniformDisc(80, 3500, r),
		Gateways: geo.GridGateways(3, 3500),
	}
	p := DefaultParams()
	a := NewAllocation(net.N(), p.Plan)
	tpLevels := p.Plan.TxPowerLevels()
	for i := range a.SF {
		a.SF[i] = lora.SF7 + lora.SF(r.Intn(6))
		a.TPdBm[i] = tpLevels[r.Intn(len(tpLevels))]
		a.Channel[i] = r.Intn(p.Plan.NumChannels())
	}
	ev, err := NewEvaluator(net, p, a, ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	fmt.Fprintf(&out, "ee %s\n", golden.Digest(golden.Floats(ev.EEAll())))

	probes := make([]float64, 0, 64)
	cur, _ := ev.MinEE()
	for i := 0; i < 64; i++ {
		dev := r.Intn(net.N())
		sf := lora.SF7 + lora.SF(r.Intn(6))
		tp := tpLevels[r.Intn(len(tpLevels))]
		ch := r.Intn(p.Plan.NumChannels())
		probes = append(probes, ev.MinEEIf(dev, sf, tp, ch))
		// Interleave thresholded probes as the greedy does; only the
		// accept/reject decision is order-stable, so digest that.
		got := ev.MinEEIfAbove(dev, sf, tp, ch, cur)
		if got > cur {
			probes = append(probes, got)
		} else {
			probes = append(probes, -1)
		}
	}
	fmt.Fprintf(&out, "minEEIf %s\n", golden.Digest(golden.Floats(probes)))

	for i := 0; i < 60; i++ {
		dev := r.Intn(net.N())
		sf := lora.SF7 + lora.SF(r.Intn(6))
		tp := tpLevels[r.Intn(len(tpLevels))]
		ch := r.Intn(p.Plan.NumChannels())
		if err := ev.SetDevice(dev, sf, tp, ch); err != nil {
			t.Fatal(err)
		}
	}
	ev.RecomputeAll()
	minEE, minIdx := ev.MinEE()
	fmt.Fprintf(&out, "afterSet %s\n",
		golden.Digest(golden.Floats(ev.EEAll()), golden.Float(minEE), fmt.Sprint(minIdx)))
	golden.Check(t, "testdata/golden_evaluator.txt", out.String(), *update)
}
