package model

import (
	"testing"

	"eflora/internal/geo"
	"eflora/internal/lora"
	"eflora/internal/rng"
)

// TestEvaluatorAllocBudget pins the allocator's steady-state hot paths —
// candidate probes, pruning verdicts, commits and pass-boundary
// recomputes — to zero heap
// allocations per operation. The greedy performs millions of these per
// figure; a regression that re-introduces a per-call allocation (a map
// rebuild, an escaping closure, a fresh capacity distribution) fails here
// long before it shows up in wall-clock benchmarks.
func TestEvaluatorAllocBudget(t *testing.T) {
	r := rng.New(99)
	net := &Network{
		Devices:  geo.UniformDisc(300, 3500, r),
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
	cur, _ := ev.MinEE()
	nch := p.Plan.NumChannels()

	i := 0
	if got := testing.AllocsPerRun(50, func() {
		ev.MinEEIf(i%300, lora.SF7+lora.SF(i%6), tpLevels[i%len(tpLevels)], i%nch)
		ev.MinEEIfAbove(i%300, lora.SF7+lora.SF(i%6), tpLevels[i%len(tpLevels)], i%nch, cur)
		i++
	}); got > 0 {
		t.Errorf("MinEEIf + MinEEIfAbove allocate %v per pair, budget 0", got)
	}
	if got := testing.AllocsPerRun(50, func() {
		ev.BlockingGroups(i%300, cur)
		i++
	}); got > 0 {
		t.Errorf("BlockingGroups allocates %v per call, budget 0", got)
	}
	if got := testing.AllocsPerRun(20, func() {
		if err := ev.SetDevice(i%300, lora.SF7+lora.SF(i%6), tpLevels[i%len(tpLevels)], i%nch); err != nil {
			t.Fatal(err)
		}
		i++
	}); got > 0 {
		t.Errorf("SetDevice allocates %v per call, budget 0", got)
	}
	if got := testing.AllocsPerRun(5, func() { ev.RecomputeAll() }); got > 0 {
		t.Errorf("RecomputeAll allocates %v per call, budget 0", got)
	}
	if got := testing.AllocsPerRun(50, func() {
		Gains(net, p)
	}); got > 0 {
		t.Errorf("cached Gains allocates %v per call, budget 0", got)
	}
}
