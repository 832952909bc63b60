package model

import (
	"math"
	"testing"

	"eflora/internal/geo"
)

func TestNetworkSubset(t *testing.T) {
	net := &Network{
		Devices:   []geo.Point{{X: 0}, {X: 1}, {X: 2}, {X: 3}},
		Gateways:  []geo.Point{{}, {Y: 100}},
		Env:       []int{0, 1, 0, 1},
		IntervalS: []float64{10, 20, 30, 40},
	}
	sub := net.Subset([]int{3, 1})
	if sub.N() != 2 || sub.G() != 2 {
		t.Fatalf("subset N=%d G=%d, want 2, 2", sub.N(), sub.G())
	}
	if sub.Devices[0].X != 3 || sub.Devices[1].X != 1 {
		t.Fatalf("subset devices %v out of order", sub.Devices)
	}
	if sub.Env[0] != 1 || sub.Env[1] != 1 {
		t.Fatalf("subset env %v did not follow devices", sub.Env)
	}
	if sub.IntervalS[0] != 40 || sub.IntervalS[1] != 20 {
		t.Fatalf("subset intervals %v did not follow devices", sub.IntervalS)
	}
	// Mutating the subset's devices must not touch the parent.
	sub.Devices[0].X = -99
	if net.Devices[3].X != 3 {
		t.Fatal("subset shares device storage with parent")
	}
}

func TestNetworkSubsetNilAttributes(t *testing.T) {
	net := &Network{
		Devices:  []geo.Point{{X: 0}, {X: 1}},
		Gateways: []geo.Point{{}},
	}
	sub := net.Subset([]int{0})
	if sub.Env != nil || sub.IntervalS != nil {
		t.Fatal("nil attributes should stay nil in subsets")
	}
	if sub.EnvOf(0) != 0 {
		t.Fatal("EnvOf on subset with nil Env")
	}
}

// TestValidateRejectsNonFiniteIntervals pins the reporting-interval
// checks: NaN and infinite periods (and a NaN duty cycle) used to pass the
// `<= 0` comparisons and reach the simulator's horizon arithmetic.
func TestValidateRejectsNonFiniteIntervals(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		p := DefaultParams()
		p.PacketIntervalS = v
		if err := p.Validate(); err == nil {
			t.Errorf("PacketIntervalS %v accepted", v)
		}
		net := &Network{
			Devices:   []geo.Point{{X: 1}, {X: 2}},
			Gateways:  []geo.Point{{}},
			IntervalS: []float64{60, v},
		}
		if err := net.Validate(DefaultParams()); err == nil {
			t.Errorf("IntervalS %v accepted", v)
		}
	}
	p := DefaultParams()
	p.TrafficDutyCycle = math.NaN()
	if err := p.Validate(); err == nil {
		t.Error("NaN duty cycle accepted")
	}
	p = DefaultParams()
	p.PacketIntervalS = 1e308
	if err := p.Validate(); err != nil {
		t.Errorf("finite interval 1e308 rejected by Params.Validate: %v", err)
	}
}
