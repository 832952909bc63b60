package alloc

import (
	"testing"

	"eflora/internal/geo"
	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/rng"
)

// tinyNetwork builds a network small enough for exhaustive search.
func tinyNetwork(nDev int, seed uint64) (*model.Network, model.Params) {
	r := rng.New(seed)
	net := &model.Network{
		Devices:  geo.UniformDisc(nDev, 2500, r),
		Gateways: []geo.Point{{X: -800, Y: 0}, {X: 800, Y: 0}},
	}
	p := model.DefaultParams()
	p.PacketIntervalS = 10 // chatty, so choices matter
	// Shrink the space: 2 channels, 3 power levels.
	p.Plan.Uplink = p.Plan.Uplink[:2]
	p.Plan.MinTxPowerDBm = 6
	p.Plan.TxPowerStepDBm = 4
	return net, p
}

// TestExhaustiveRejectsHugeSpace checks the state cap before any
// enumeration: twelve devices span ~3.35e18 assignments, far over
// exhaustiveMaxStates, so the call must fail at once instead of running.
func TestExhaustiveRejectsHugeSpace(t *testing.T) {
	net, p := tinyNetwork(12, 1)
	_, err := Exhaustive{}.Allocate(net, p, nil)
	if err == nil {
		t.Error("oversized search accepted")
	}
}

func TestExhaustiveBeatsOrMatchesEverything(t *testing.T) {
	net, p := tinyNetwork(4, 2)
	opt, err := Exhaustive{}.Allocate(net, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	optMin, err := EvaluateMinEE(net, p, opt, model.ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"legacy", "rslora", "eflora"} {
		s, err := StrategyByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		a, err := s.New(Options{}).Allocate(net, p, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		min, err := EvaluateMinEE(net, p, a, model.ModeExact)
		if err != nil {
			t.Fatal(err)
		}
		if min > optMin*(1+1e-9) {
			t.Errorf("%s min EE %v exceeds the exhaustive optimum %v", key, min, optMin)
		}
	}
}

func TestGreedyNearOptimal(t *testing.T) {
	// The paper motivates the greedy as a practical substitute for the
	// NP-hard optimum; on tiny instances it should stay within a modest
	// factor of the true max-min optimum.
	worst := 1.0
	for seed := uint64(1); seed <= 5; seed++ {
		net, p := tinyNetwork(4, seed)
		opt, err := Exhaustive{}.Allocate(net, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		optMin, err := EvaluateMinEE(net, p, opt, model.ModeExact)
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := NewEFLoRa(Options{}).Allocate(net, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		gMin, err := EvaluateMinEE(net, p, greedy, model.ModeExact)
		if err != nil {
			t.Fatal(err)
		}
		if optMin <= 0 {
			continue
		}
		ratio := gMin / optMin
		if ratio < worst {
			worst = ratio
		}
		if ratio < 0.7 {
			t.Errorf("seed %d: greedy %v vs optimum %v (ratio %.3f)", seed, gMin, optMin, ratio)
		}
	}
	t.Logf("worst greedy/optimal ratio over 5 instances: %.3f", worst)
}

func TestExhaustiveHandlesUnreachableDevice(t *testing.T) {
	net := &model.Network{
		Devices:  []geo.Point{{X: 100, Y: 0}, {X: 90000, Y: 0}},
		Gateways: []geo.Point{{}},
	}
	p := model.DefaultParams()
	p.Plan.Uplink = p.Plan.Uplink[:1]
	p.Plan.MinTxPowerDBm = 14
	a, err := Exhaustive{}.Allocate(net, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !a.SF[1].Valid() {
		t.Errorf("unreachable device got invalid SF %d", int(a.SF[1]))
	}
	if a.SF[1] != lora.MaxSF {
		t.Errorf("unreachable device pinned to %v, want SF12", a.SF[1])
	}
}
