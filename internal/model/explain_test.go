package model

import (
	"math"
	"strings"
	"testing"

	"eflora/internal/geo"
	"eflora/internal/lora"
)

func TestExplainConsistentWithEE(t *testing.T) {
	e := newTestEvaluator(t, 120, 3, 51)
	for i := 0; i < 120; i += 7 {
		b := e.Explain(i)
		if b.Device != i {
			t.Fatalf("device mismatch %d", b.Device)
		}
		if math.Abs(b.EE-e.EE(i)) > 1e-12 {
			t.Errorf("Explain EE %v != cached %v", b.EE, e.EE(i))
		}
		if math.Abs(b.PRR-e.PRR(i)) > 1e-12 {
			t.Errorf("Explain PRR %v != cached %v", b.PRR, e.PRR(i))
		}
		if len(b.Gateways) != 3 {
			t.Fatalf("gateway breakdowns = %d", len(b.Gateways))
		}
		if b.GroupSize < 1 {
			t.Errorf("group size %d", b.GroupSize)
		}
		if b.CollisionSurvival <= 0 || b.CollisionSurvival > 1 {
			t.Errorf("collision survival %v", b.CollisionSurvival)
		}
		for _, g := range b.Gateways {
			if g.PFade < 0 || g.PFade > 1 || g.Theta < 0 || g.Theta > 1 {
				t.Errorf("gateway %d probabilities out of range: %+v", g.Gateway, g)
			}
		}
	}
}

func TestExplainReconstructsPRR(t *testing.T) {
	// PRR must equal collisionSurvival * (1 - prod(1 - theta*pFade)).
	e := newTestEvaluator(t, 60, 2, 53)
	for i := 0; i < 60; i++ {
		b := e.Explain(i)
		prodFail := 1.0
		for _, g := range b.Gateways {
			if math.IsInf(g.RxPowerDBm, -1) {
				continue
			}
			prodFail *= 1 - g.Theta*g.PFade
		}
		want := b.CollisionSurvival * (1 - prodFail)
		if math.Abs(want-b.PRR) > 1e-9 {
			t.Fatalf("device %d: reconstructed PRR %v != %v", i, want, b.PRR)
		}
	}
}

func TestExplainMarginMatchesDistance(t *testing.T) {
	net := &Network{
		Devices:  []geo.Point{{X: 200, Y: 0}, {X: 4000, Y: 0}},
		Gateways: []geo.Point{{}},
	}
	p := DefaultParams()
	a := NewAllocation(2, p.Plan)
	a.SF[0], a.SF[1] = lora.SF7, lora.SF10
	a.TPdBm[0], a.TPdBm[1] = 14, 14
	e, err := NewEvaluator(net, p, a, ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	near := e.Explain(0)
	far := e.Explain(1)
	if near.Gateways[0].FadeMarginDB <= far.Gateways[0].FadeMarginDB {
		t.Errorf("near margin %v should exceed far margin %v",
			near.Gateways[0].FadeMarginDB, far.Gateways[0].FadeMarginDB)
	}
	if near.AirTimeS >= far.AirTimeS {
		t.Error("SF7 air time should be below SF10")
	}
}

func TestExplainString(t *testing.T) {
	e := newTestEvaluator(t, 20, 2, 57)
	s := e.Explain(3).String()
	for _, want := range []string{"device 3", "PRR", "gw 0", "gw 1", "margin"} {
		if !strings.Contains(s, want) {
			t.Errorf("breakdown text missing %q:\n%s", want, s)
		}
	}
}
