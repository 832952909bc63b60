package lora

import (
	"math"
	"testing"
	"time"
)

func TestEU868Plan(t *testing.T) {
	p := EU868()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.NumChannels(); got != 8 {
		t.Errorf("EU868 channels = %d, want 8", got)
	}
	for _, ch := range p.Uplink {
		if ch.BandwidthHz != 125e3 {
			t.Errorf("channel %d bandwidth = %v, want 125 kHz", ch.Index, ch.BandwidthHz)
		}
		if ch.CenterHz < 867e6 || ch.CenterHz > 869e6 {
			t.Errorf("channel %d center %v outside EU868 band", ch.Index, ch.CenterHz)
		}
	}
}

func TestUS915Sub1Plan(t *testing.T) {
	p := US915Sub1()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.NumChannels(); got != 8 {
		t.Errorf("US915 channels = %d, want 8", got)
	}
	// Paper evaluation: 902.3 to 903.7 MHz.
	if p.Uplink[0].CenterHz != 902.3e6 {
		t.Errorf("first channel = %v, want 902.3 MHz", p.Uplink[0].CenterHz)
	}
	if math.Abs(p.Uplink[7].CenterHz-903.7e6) > 1 {
		t.Errorf("last channel = %v, want 903.7 MHz", p.Uplink[7].CenterHz)
	}
	// Uniform 200 kHz spacing.
	for i := 1; i < 8; i++ {
		if d := p.Uplink[i].CenterHz - p.Uplink[i-1].CenterHz; math.Abs(d-200e3) > 1 {
			t.Errorf("spacing between channel %d and %d = %v, want 200 kHz", i-1, i, d)
		}
	}
}

func TestTxPowerLevels(t *testing.T) {
	p := EU868()
	levels := p.TxPowerLevels()
	want := []float64{2, 4, 6, 8, 10, 12, 14}
	if len(levels) != len(want) {
		t.Fatalf("EU868 TX power levels = %v, want %v", levels, want)
	}
	for i := range want {
		if math.Abs(levels[i]-want[i]) > 1e-9 {
			t.Errorf("level[%d] = %v, want %v", i, levels[i], want[i])
		}
	}
	// The longest ladder Validate allows.
	p.MinTxPowerDBm, p.MaxTxPowerDBm, p.TxPowerStepDBm = 0, MaxTxPowerLevels-1, 1
	if err := p.Validate(); err != nil {
		t.Fatalf("%d-level plan rejected: %v", MaxTxPowerLevels, err)
	}
	if n := len(p.TxPowerLevels()); n != MaxTxPowerLevels {
		t.Errorf("TxPowerLevels lists %d levels, want %d", n, MaxTxPowerLevels)
	}
}

func TestTxPowerLevelsZeroStep(t *testing.T) {
	p := Plan{Name: "fixed", MaxTxPowerDBm: 14}
	levels := p.TxPowerLevels()
	if len(levels) != 1 || levels[0] != 14 {
		t.Errorf("zero-step plan levels = %v, want [14]", levels)
	}
}

func TestPlanValidateFailures(t *testing.T) {
	eu868 := func(mutate func(*Plan)) Plan {
		p := EU868()
		mutate(&p)
		return p
	}
	tests := []struct {
		name string
		plan Plan
	}{
		{"empty", Plan{Name: "x"}},
		{"bad index", Plan{Name: "x", Uplink: []Channel{{Index: 1, CenterHz: 1, BandwidthHz: 1}}}},
		{"zero freq", Plan{Name: "x", Uplink: []Channel{{Index: 0, BandwidthHz: 1}}}},
		{"power inverted", Plan{
			Name:          "x",
			Uplink:        []Channel{{Index: 0, CenterHz: 1, BandwidthHz: 1}},
			MinTxPowerDBm: 14, MaxTxPowerDBm: 2,
		}},
		// Power ladders TxPowerLevels never finished: non-finite bounds
		// or steps, a step too small to move the level, and one level
		// past MaxTxPowerLevels.
		{"NaN min", eu868(func(p *Plan) { p.MinTxPowerDBm = math.NaN() })},
		{"NaN max", eu868(func(p *Plan) { p.MaxTxPowerDBm = math.NaN() })},
		{"NaN step", eu868(func(p *Plan) { p.TxPowerStepDBm = math.NaN() })},
		{"-Inf min", eu868(func(p *Plan) { p.MinTxPowerDBm = math.Inf(-1) })},
		{"+Inf max", eu868(func(p *Plan) { p.MaxTxPowerDBm = math.Inf(1) })},
		{"+Inf step", eu868(func(p *Plan) { p.TxPowerStepDBm = math.Inf(1) })},
		{"tiny step", eu868(func(p *Plan) { p.TxPowerStepDBm = 1e-300 })},
		{"65 levels", eu868(func(p *Plan) { p.MinTxPowerDBm, p.MaxTxPowerDBm, p.TxPowerStepDBm = 0, 64, 1 })},
	}
	// Validate runs under a deadline, so a check that loops fails instead
	// of hanging.
	for _, tt := range tests {
		done := make(chan error, 1)
		go func() { done <- tt.plan.Validate() }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("Validate(%s) = nil, want error", tt.name)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("Validate(%s) did not return within 5 s", tt.name)
		}
	}
}

func TestTxPowerIndexRoundTrip(t *testing.T) {
	p := EU868()
	for idx, tp := 0, p.MaxTxPowerDBm; tp >= p.MinTxPowerDBm; idx, tp = idx+1, tp-p.TxPowerStepDBm {
		got, ok := p.TxPowerIndex(tp)
		if !ok || got != idx {
			t.Errorf("TxPowerIndex(%v) = %d,%v, want %d", tp, got, ok, idx)
		}
		back, ok := p.TxPowerForIndex(idx)
		if !ok || back != tp {
			t.Errorf("TxPowerForIndex(%d) = %v,%v, want %v", idx, back, ok, tp)
		}
	}
	// EU868: index 0 = 14 dBm, index 6 = 2 dBm.
	if idx, ok := p.TxPowerIndex(14); !ok || idx != 0 {
		t.Errorf("TxPowerIndex(14) = %d,%v", idx, ok)
	}
	if idx, ok := p.TxPowerIndex(2); !ok || idx != 6 {
		t.Errorf("TxPowerIndex(2) = %d,%v", idx, ok)
	}
	for _, bad := range []float64{15, 1, 13} {
		if _, ok := p.TxPowerIndex(bad); ok {
			t.Errorf("TxPowerIndex(%v) accepted", bad)
		}
	}
	if _, ok := p.TxPowerForIndex(7); ok {
		t.Error("TxPowerForIndex(7) accepted below min power")
	}
	if _, ok := p.TxPowerForIndex(-1); ok {
		t.Error("TxPowerForIndex(-1) accepted")
	}
}
