package alloc

import (
	"math"
	"reflect"
	"testing"

	"eflora/internal/geo"
	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/rng"
)

func testNetwork(nDev, nGW int, seed uint64) *model.Network {
	r := rng.New(seed)
	return &model.Network{
		Devices:  geo.UniformDisc(nDev, 3000, r),
		Gateways: geo.GridGateways(nGW, 3000),
	}
}

func TestSFSharesMatchEq22(t *testing.T) {
	shares := SFShares()
	sum := 0.0
	for _, s := range lora.SFs() {
		sum += shares[s]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	// Eq. 22 anchors: SF7 share = (7/128)/Σ ≈ 0.4497.
	if math.Abs(shares[lora.SF7]-0.4497) > 0.001 {
		t.Errorf("SF7 share = %v, want ~0.4497", shares[lora.SF7])
	}
	if math.Abs(shares[lora.SF12]-0.0241) > 0.001 {
		t.Errorf("SF12 share = %v, want ~0.0241", shares[lora.SF12])
	}
	// Strictly decreasing in SF.
	for i := 1; i < 6; i++ {
		if shares[lora.SFs()[i]] >= shares[lora.SFs()[i-1]] {
			t.Errorf("shares not decreasing at %v", lora.SFs()[i])
		}
	}
}

func TestLegacyAllocation(t *testing.T) {
	net := testNetwork(200, 2, 1)
	p := model.DefaultParams()
	a, err := Legacy{}.Allocate(net, p, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(net.N(), p); err != nil {
		t.Fatal(err)
	}
	gains := model.Gains(net, p)
	for i := 0; i < net.N(); i++ {
		// Legacy always uses max power.
		if a.TPdBm[i] != p.Plan.MaxTxPowerDBm {
			t.Fatalf("device %d TP = %v, want max", i, a.TPdBm[i])
		}
		// And the minimum feasible SF.
		want, ok := model.MinFeasibleSF(gains, i, p.Plan.MaxTxPowerDBm)
		if ok && a.SF[i] != want {
			t.Fatalf("device %d SF = %v, min feasible %v", i, a.SF[i], want)
		}
	}
}

func TestLegacyChannelsSpread(t *testing.T) {
	net := testNetwork(800, 1, 3)
	p := model.DefaultParams()
	a, err := Legacy{}.Allocate(net, p, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, p.Plan.NumChannels())
	for _, c := range a.Channel {
		counts[c]++
	}
	for c, cnt := range counts {
		if cnt == 0 {
			t.Errorf("channel %d unused across 800 devices", c)
		}
	}
}

func TestRSLoRaQuotasRespected(t *testing.T) {
	net := testNetwork(1000, 3, 5)
	p := model.DefaultParams()
	a, err := RSLoRa{}.Allocate(net, p, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(net.N(), p); err != nil {
		t.Fatal(err)
	}
	counts := make(map[lora.SF]int)
	for _, s := range a.SF {
		counts[s]++
	}
	shares := SFShares()
	// Feasibility can push devices to higher SFs, so lower SFs may be
	// under quota, but never over by more than rounding.
	for _, s := range lora.SFs() {
		maxAllowed := int(shares[s]*1000) + 6
		if counts[s] > maxAllowed {
			t.Errorf("%v count %d exceeds quota ~%d", s, counts[s], maxAllowed)
		}
	}
	// Unlike legacy, RS-LoRa must put a nontrivial share on large SFs.
	if counts[lora.SF11]+counts[lora.SF12] == 0 {
		t.Error("RS-LoRa assigned nobody to SF11/SF12")
	}
}

func TestRSLoRaFeasibility(t *testing.T) {
	net := testNetwork(300, 1, 7)
	p := model.DefaultParams()
	a, err := RSLoRa{}.Allocate(net, p, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	gains := model.Gains(net, p)
	for i := 0; i < net.N(); i++ {
		min, ok := model.MinFeasibleSF(gains, i, p.Plan.MaxTxPowerDBm)
		if !ok {
			continue
		}
		if a.SF[i] < min {
			t.Fatalf("device %d assigned %v below its feasibility bound %v", i, a.SF[i], min)
		}
		if !model.Feasible(gains, i, a.SF[i], a.TPdBm[i]) {
			t.Fatalf("device %d assignment (%v, %v dBm) cannot close the link", i, a.SF[i], a.TPdBm[i])
		}
	}
}

func TestEFLoRaImprovesOverBaselines(t *testing.T) {
	net := testNetwork(250, 3, 9)
	p := model.DefaultParams()
	r := rng.New(10)

	legacy, err := Legacy{}.Allocate(net, p, r)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RSLoRa{}.Allocate(net, p, r)
	if err != nil {
		t.Fatal(err)
	}
	ef, rep, err := NewEFLoRa(Options{}).AllocateWithReport(net, p, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := ef.Validate(net.N(), p); err != nil {
		t.Fatal(err)
	}

	minLegacy, err := EvaluateMinEE(net, p, legacy, model.ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	minRS, err := EvaluateMinEE(net, p, rs, model.ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	minEF, err := EvaluateMinEE(net, p, ef, model.ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("min EE: legacy=%.1f rs=%.1f ef=%.1f (report %+v)", minLegacy, minRS, minEF, rep)
	if minEF <= minLegacy {
		t.Errorf("EF-LoRa min EE %v should beat legacy %v", minEF, minLegacy)
	}
	if minEF < minRS {
		t.Errorf("EF-LoRa min EE %v should be at least RS-LoRa %v", minEF, minRS)
	}
}

func TestEFLoRaMinEENeverDecreases(t *testing.T) {
	net := testNetwork(120, 2, 11)
	p := model.DefaultParams()
	_, rep, err := NewEFLoRa(Options{}).AllocateWithReport(net, p, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalMinEE < rep.InitialMinEE-1e-9 {
		t.Errorf("greedy decreased min EE: %v -> %v", rep.InitialMinEE, rep.FinalMinEE)
	}
	if rep.Passes < 1 {
		t.Errorf("report passes = %d", rep.Passes)
	}
	if rep.Elapsed <= 0 {
		t.Error("report has no elapsed time")
	}
}

func TestEFLoRaAllAssignmentsFeasible(t *testing.T) {
	net := testNetwork(150, 2, 13)
	p := model.DefaultParams()
	a, err := NewEFLoRa(Options{}).Allocate(net, p, rng.New(14))
	if err != nil {
		t.Fatal(err)
	}
	gains := model.Gains(net, p)
	for i := 0; i < net.N(); i++ {
		if _, ok := model.MinFeasibleSF(gains, i, p.Plan.MaxTxPowerDBm); !ok {
			continue // genuinely unreachable device
		}
		if !model.Feasible(gains, i, a.SF[i], a.TPdBm[i]) {
			t.Fatalf("device %d assigned infeasible (%v, %v dBm)", i, a.SF[i], a.TPdBm[i])
		}
	}
}

func TestEFLoRaFixedTPPinsPower(t *testing.T) {
	net := testNetwork(100, 2, 15)
	p := model.DefaultParams()
	tp := 14.0
	a, err := NewEFLoRa(Options{FixedTPdBm: &tp}).Allocate(net, p, rng.New(16))
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range a.TPdBm {
		if got != tp {
			t.Fatalf("device %d TP = %v, want pinned %v", i, got, tp)
		}
	}
}

func TestEFLoRaFixedTPUsuallyWorse(t *testing.T) {
	// Fig. 9: removing TP allocation costs fairness.
	net := testNetwork(200, 3, 17)
	p := model.DefaultParams()
	free, err := NewEFLoRa(Options{}).Allocate(net, p, rng.New(18))
	if err != nil {
		t.Fatal(err)
	}
	tp := p.Plan.MaxTxPowerDBm
	pinned, err := NewEFLoRa(Options{FixedTPdBm: &tp}).Allocate(net, p, rng.New(18))
	if err != nil {
		t.Fatal(err)
	}
	minFree, _ := EvaluateMinEE(net, p, free, model.ModeExact)
	minPinned, _ := EvaluateMinEE(net, p, pinned, model.ModeExact)
	if minPinned > minFree*1.05 {
		t.Errorf("pinned-TP min EE %v should not beat free TP %v", minPinned, minFree)
	}
}

func TestEFLoRaDeterministicDensityOrder(t *testing.T) {
	net := testNetwork(80, 2, 19)
	p := model.DefaultParams()
	a1, err := NewEFLoRa(Options{}).Allocate(net, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewEFLoRa(Options{}).Allocate(net, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.SF {
		if a1.SF[i] != a2.SF[i] || a1.TPdBm[i] != a2.TPdBm[i] || a1.Channel[i] != a2.Channel[i] {
			t.Fatalf("density-first EF-LoRa is not deterministic at device %d", i)
		}
	}
}

func TestEFLoRaRandomOrderStillImproves(t *testing.T) {
	net := testNetwork(100, 2, 21)
	p := model.DefaultParams()
	_, rep, err := NewEFLoRa(Options{RandomOrder: true}).AllocateWithReport(net, p, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalMinEE < rep.InitialMinEE-1e-9 {
		t.Errorf("random-order greedy decreased min EE: %v -> %v", rep.InitialMinEE, rep.FinalMinEE)
	}
}

func TestEFLoRaRejectsInvalidInputs(t *testing.T) {
	p := model.DefaultParams()
	empty := &model.Network{}
	if _, err := NewEFLoRa(Options{}).Allocate(empty, p, nil); err == nil {
		t.Error("empty network accepted")
	}
	bad := p
	bad.PacketIntervalS = -1
	net := testNetwork(10, 1, 23)
	if _, err := NewEFLoRa(Options{}).Allocate(net, bad, nil); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := (Legacy{}).Allocate(net, bad, rng.New(1)); err == nil {
		t.Error("legacy accepted invalid params")
	}
	if _, err := (RSLoRa{}).Allocate(net, bad, rng.New(1)); err == nil {
		t.Error("RS-LoRa accepted invalid params")
	}
}

// TestAllocatorNames pins what each registry key and alias — the names
// reports and -allocator flags use — constructs.
func TestAllocatorNames(t *testing.T) {
	for key, want := range map[string]Allocator{
		"legacy":       Legacy{},
		"legacy-lora":  Legacy{},
		"adr":          ADR{},
		"rslora":       RSLoRa{},
		"rs-lora":      RSLoRa{},
		"eflora":       (*EFLoRa)(nil),
		"ef-lora":      (*EFLoRa)(nil),
		"anneal":       Anneal{},
		"hier":         (*Hierarchical)(nil),
		"hierarchical": (*Hierarchical)(nil),
		"exhaustive":   Exhaustive{},
	} {
		s, err := StrategyByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.New(Options{}); reflect.TypeOf(got) != reflect.TypeOf(want) {
			t.Errorf("key %q constructs %T, want %T", key, got, want)
		}
	}
}
