package alloc_test

import (
	"math"
	"testing"

	"eflora/internal/alloc"
	"eflora/internal/core"
	"eflora/internal/model"
	"eflora/internal/rng"
)

// TestEFLoRaFinalMinEEIsExact pins Report.FinalMinEE to the true minimum
// EE of the returned allocation, bit for bit, as a fresh evaluator scores
// it. On this Fig. 10 deployment the greedy's incrementally maintained
// group sums drift by an ULP over its commits, so the evaluator's own
// minimum ends one bit below the allocation's.
func TestEFLoRaFinalMinEEIsExact(t *testing.T) {
	const seed = 14399445414540545466
	netw, err := core.Build(core.Scenario{Devices: 50, Gateways: 3, RadiusM: 5000, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	a, rep, err := alloc.NewEFLoRa(alloc.Options{}).AllocateWithReport(netw.Net, netw.Params, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	got, err := alloc.EvaluateMinEE(netw.Net, netw.Params, a, model.ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(rep.FinalMinEE) {
		t.Errorf("Report.FinalMinEE %v, fresh evaluation of the allocation %v", rep.FinalMinEE, got)
	}
}
