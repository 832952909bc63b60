package alloc

import (
	"testing"

	"eflora/internal/geo"
	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/rng"
)

func TestADRAllocationValid(t *testing.T) {
	net := testNetwork(300, 3, 61)
	p := model.DefaultParams()
	a, err := ADR{}.Allocate(net, p, rng.New(62))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(net.N(), p); err != nil {
		t.Fatal(err)
	}
}

func TestADRKeepsMargin(t *testing.T) {
	// Every assignment must retain the device margin over the SNR
	// threshold at the best gateway (mean channel).
	net := testNetwork(200, 2, 63)
	p := model.DefaultParams()
	const margin = adrDeviceMarginDB
	a, err := ADR{}.Allocate(net, p, rng.New(64))
	if err != nil {
		t.Fatal(err)
	}
	gains := model.Gains(net, p)
	for i := 0; i < net.N(); i++ {
		best := 0.0
		for _, g := range gains[i] {
			if g > best {
				best = g
			}
		}
		rxDBm := a.TPdBm[i] + lora.LinearToDB(best)
		snrDB := rxDBm - p.NoiseDBm
		// Out-of-range devices legitimately miss the margin.
		if snrDB-lora.SNRThresholdDB(lora.MaxSF) < margin && a.SF[i] == lora.MaxSF &&
			a.TPdBm[i] == p.Plan.MaxTxPowerDBm {
			continue
		}
		if got := snrDB - lora.SNRThresholdDB(a.SF[i]); got < margin-1e-9 {
			t.Fatalf("device %d: margin %.2f dB below %v (SF %v, TP %v)",
				i, got, margin, a.SF[i], a.TPdBm[i])
		}
	}
}

func TestADRNearDevicesGetLowSFAndPower(t *testing.T) {
	net := &model.Network{
		Devices:  []geo.Point{{X: 50, Y: 0}, {X: 4800, Y: 0}},
		Gateways: []geo.Point{{}},
	}
	p := model.DefaultParams()
	a, err := ADR{}.Allocate(net, p, rng.New(65))
	if err != nil {
		t.Fatal(err)
	}
	if a.SF[0] != lora.SF7 {
		t.Errorf("near device SF = %v, want SF7", a.SF[0])
	}
	if a.TPdBm[0] != p.Plan.MinTxPowerDBm {
		t.Errorf("near device TP = %v, want plan minimum", a.TPdBm[0])
	}
	if a.SF[1] <= a.SF[0] {
		t.Errorf("far device SF %v should exceed near device %v", a.SF[1], a.SF[0])
	}
}

func TestADRVersusLegacyCharacter(t *testing.T) {
	// ADR lowers transmission power where margin allows but holds an
	// SNR margin, so per device: TP at or below legacy's max power, SF at
	// or above legacy's aggressive minimum.
	net := testNetwork(200, 2, 67)
	p := model.DefaultParams()
	adr, err := ADR{}.Allocate(net, p, rng.New(68))
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := Legacy{}.Allocate(net, p, rng.New(68))
	if err != nil {
		t.Fatal(err)
	}
	var sumTP float64
	lowered := 0
	for i := range adr.SF {
		if adr.TPdBm[i] > legacy.TPdBm[i] {
			t.Fatalf("device %d: ADR TP %v above legacy %v", i, adr.TPdBm[i], legacy.TPdBm[i])
		}
		if adr.TPdBm[i] < legacy.TPdBm[i] {
			lowered++
		}
		if adr.SF[i] < legacy.SF[i] {
			t.Fatalf("device %d: ADR SF %v below legacy's minimum feasible %v", i, adr.SF[i], legacy.SF[i])
		}
		sumTP += adr.TPdBm[i]
	}
	if lowered == 0 {
		t.Error("ADR lowered nobody's power")
	}
	if mean := sumTP / float64(len(adr.TPdBm)); mean >= p.Plan.MaxTxPowerDBm {
		t.Errorf("ADR mean TP %v not below the maximum", mean)
	}
}
