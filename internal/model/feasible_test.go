package model

import (
	"math"
	"testing"
	"time"

	"eflora/internal/geo"
	"eflora/internal/lora"
)

func feasibilityFixture() (*Network, Params, [][]float64) {
	net := &Network{
		Devices: []geo.Point{
			{X: 100, Y: 0},   // very close: SF7 even at low power
			{X: 2500, Y: 0},  // mid-range
			{X: 9000, Y: 0},  // far: needs a large SF
			{X: 50000, Y: 0}, // unreachable
		},
		Gateways: []geo.Point{{}},
	}
	p := DefaultParams()
	return net, p, Gains(net, p)
}

func TestMinFeasibleSFOrdering(t *testing.T) {
	_, p, gains := feasibilityFixture()
	sfs := make([]lora.SF, 3)
	for i := 0; i < 3; i++ {
		sf, ok := MinFeasibleSF(gains, i, p.Plan.MaxTxPowerDBm)
		if !ok {
			t.Fatalf("device %d should be reachable", i)
		}
		sfs[i] = sf
	}
	if sfs[0] != lora.SF7 {
		t.Errorf("near device min SF = %v, want SF7", sfs[0])
	}
	if !(sfs[0] <= sfs[1] && sfs[1] <= sfs[2]) {
		t.Errorf("min feasible SF should grow with distance: %v", sfs)
	}
	if _, ok := MinFeasibleSF(gains, 3, p.Plan.MaxTxPowerDBm); ok {
		t.Error("50 km device should be unreachable")
	}
}

func TestMinFeasibleSFMonotoneInPower(t *testing.T) {
	_, p, gains := feasibilityFixture()
	for i := 0; i < 3; i++ {
		lo, okLo := MinFeasibleSF(gains, i, p.Plan.MinTxPowerDBm)
		hi, okHi := MinFeasibleSF(gains, i, p.Plan.MaxTxPowerDBm)
		if okLo && okHi && hi > lo {
			t.Errorf("device %d: min SF at max power (%v) exceeds min SF at min power (%v)", i, hi, lo)
		}
	}
}

func TestMinFeasibleTP(t *testing.T) {
	_, p, gains := feasibilityFixture()
	// Near device: minimum plan power suffices even at SF7.
	tp, ok := MinFeasibleTP(gains, 0, lora.SF7, p.Plan)
	if !ok || tp != p.Plan.MinTxPowerDBm {
		t.Errorf("near device min TP = (%v, %v), want (%v, true)", tp, ok, p.Plan.MinTxPowerDBm)
	}
	// Far device at SF7 may need more power than the plan allows; at SF12
	// it must be feasible.
	if _, ok := MinFeasibleTP(gains, 2, lora.SF12, p.Plan); !ok {
		t.Error("far device should close the link at SF12")
	}
	if _, ok := MinFeasibleTP(gains, 3, lora.SF12, p.Plan); ok {
		t.Error("50 km device should not close any link")
	}
}

func TestMinFeasibleTPIsSufficientAndMinimal(t *testing.T) {
	_, p, gains := feasibilityFixture()
	for i := 0; i < 3; i++ {
		for _, sf := range lora.SFs() {
			tp, ok := MinFeasibleTP(gains, i, sf, p.Plan)
			if !ok {
				continue
			}
			if !Feasible(gains, i, sf, tp) {
				t.Errorf("device %d %v: returned TP %v is not feasible", i, sf, tp)
			}
			lower := tp - p.Plan.TxPowerStepDBm
			if lower >= p.Plan.MinTxPowerDBm && Feasible(gains, i, sf, lower) {
				t.Errorf("device %d %v: TP %v is not minimal (%v also works)", i, sf, tp, lower)
			}
		}
	}
}

func TestReachableGateways(t *testing.T) {
	net := &Network{
		Devices:  []geo.Point{{X: 0, Y: 0}},
		Gateways: []geo.Point{{X: 500, Y: 0}, {X: 3000, Y: 0}, {X: 40000, Y: 0}},
	}
	p := DefaultParams()
	gains := Gains(net, p)
	got := ReachableGateways(gains, 0, lora.SF7, 14)
	if len(got) < 1 || got[0] != 0 {
		t.Fatalf("nearest gateway should be reachable at SF7: %v", got)
	}
	all := ReachableGateways(gains, 0, lora.SF12, 14)
	if len(all) < len(got) {
		t.Errorf("SF12 should reach at least as many gateways: %v vs %v", all, got)
	}
	for _, k := range all {
		if k == 2 {
			t.Error("40 km gateway should not be reachable")
		}
	}
}

func TestFeasibleConsistentWithReachable(t *testing.T) {
	net, p, gains := feasibilityFixture()
	_ = net
	for i := 0; i < 4; i++ {
		for _, sf := range lora.SFs() {
			for _, tp := range p.Plan.TxPowerLevels() {
				want := len(ReachableGateways(gains, i, sf, tp)) > 0
				if got := Feasible(gains, i, sf, tp); got != want {
					t.Fatalf("Feasible(%d, %v, %v) = %v, ReachableGateways says %v",
						i, sf, tp, got, want)
				}
			}
		}
	}
}

func TestFeasibleDBUnheardDevice(t *testing.T) {
	gains := [][]float64{{0, 0}}
	if g := BestGainDB(gains, 0); !math.IsInf(g, -1) {
		t.Fatalf("BestGainDB of an unheard device = %v, want -Inf", g)
	}
	for _, sf := range lora.SFs() {
		if Feasible(gains, 0, sf, 20) || FeasibleDB(BestGainDB(gains, 0), sf, 20) {
			t.Errorf("%v: an unheard device is feasible", sf)
		}
	}
}

// TestParamsValidateRejectsEndlessLadders pins that Params.Validate
// refuses the power ladders Plan.Validate rejects: non-finite bounds or
// steps, a step too small to move the level, and one level past
// lora.MaxTxPowerLevels. Each case runs under a deadline: a plan that
// validates is then walked by MinFeasibleTP for a link needing about
// 160 dBm, which never returns on a ladder stuck below that, so a
// regression fails instead of hanging.
func TestParamsValidateRejectsEndlessLadders(t *testing.T) {
	unreachable := [][]float64{{1e-30}}
	cases := map[string]func(*lora.Plan){
		"NaN min":   func(p *lora.Plan) { p.MinTxPowerDBm = math.NaN() },
		"NaN step":  func(p *lora.Plan) { p.TxPowerStepDBm = math.NaN() },
		"+Inf max":  func(p *lora.Plan) { p.MaxTxPowerDBm = math.Inf(1) },
		"-Inf min":  func(p *lora.Plan) { p.MinTxPowerDBm = math.Inf(-1) },
		"tiny step": func(p *lora.Plan) { p.TxPowerStepDBm = 1e-300 },
		"65 levels": func(p *lora.Plan) { p.MinTxPowerDBm, p.MaxTxPowerDBm, p.TxPowerStepDBm = 0, 64, 1 },
	}
	for name, mutate := range cases {
		p := DefaultParams()
		mutate(&p.Plan)
		done := make(chan error, 1)
		go func() {
			err := p.Validate()
			if err == nil {
				MinFeasibleTP(unreachable, 0, lora.SF12, p.Plan)
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: Params.Validate accepted the plan", name)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s: Params.Validate accepted the plan and MinFeasibleTP did not return within 5 s", name)
		}
	}
}
