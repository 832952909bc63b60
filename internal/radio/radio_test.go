package radio

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTxCurrentTableAnchors(t *testing.T) {
	p := DefaultProfile()
	tests := []struct {
		dbm  float64
		want float64
	}{
		{2, 24e-3},
		{14, 44e-3},
		{20, 125e-3},
	}
	for _, tt := range tests {
		if got := p.TxCurrent(tt.dbm); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("TxCurrent(%v) = %v, want %v", tt.dbm, got, tt.want)
		}
	}
}

func TestTxCurrentInterpolates(t *testing.T) {
	p := DefaultProfile()
	// Halfway between 2 dBm (24 mA) and 4 dBm (26 mA) is 25 mA.
	if got := p.TxCurrent(3); math.Abs(got-25e-3) > 1e-12 {
		t.Errorf("TxCurrent(3) = %v, want 25 mA", got)
	}
}

func TestTxCurrentClampsOutsideTable(t *testing.T) {
	p := DefaultProfile()
	if got := p.TxCurrent(-10); got != p.TxCurrent(2) {
		t.Errorf("TxCurrent(-10) = %v, want clamp to 2 dBm value", got)
	}
	if got := p.TxCurrent(30); got != p.TxCurrent(20) {
		t.Errorf("TxCurrent(30) = %v, want clamp to 20 dBm value", got)
	}
}

func TestTxCurrentMonotone(t *testing.T) {
	p := DefaultProfile()
	prev := 0.0
	for dbm := 2.0; dbm <= 20; dbm += 0.5 {
		cur := p.TxCurrent(dbm)
		if cur < prev {
			t.Fatalf("TxCurrent not monotone at %v dBm: %v < %v", dbm, cur, prev)
		}
		prev = cur
	}
}

func TestTxCurrentEmptyTable(t *testing.T) {
	var p Profile
	if got := p.TxCurrent(14); got != 0 {
		t.Errorf("empty profile TxCurrent = %v, want 0", got)
	}
}

func TestTxEnergyScalesWithAirTime(t *testing.T) {
	p := DefaultProfile()
	e1 := p.TxEnergy(14, 0.05)
	e2 := p.TxEnergy(14, 0.10)
	if math.Abs(e2/e1-2) > 1e-12 {
		t.Errorf("TxEnergy should be linear in air time: ratio = %v", e2/e1)
	}
	// 14 dBm, 3.3 V, 44 mA, 50 ms => 7.26 mJ.
	want := 3.3 * 44e-3 * 0.05
	if math.Abs(e1-want) > 1e-12 {
		t.Errorf("TxEnergy(14, 50ms) = %v, want %v", e1, want)
	}
}

func TestOverheadEnergyPositiveAndFixed(t *testing.T) {
	p := DefaultProfile()
	oh := p.OverheadEnergy()
	if oh <= 0 {
		t.Fatalf("OverheadEnergy = %v", oh)
	}
	// Overhead must not depend on TP or air time (paper assumption).
	if p.TransmissionEnergy(2, 0.01)-p.TxEnergy(2, 0.01) != oh {
		t.Error("TransmissionEnergy does not decompose into overhead + TX")
	}
}

func TestCycleEnergySleepDominatedForLongPeriods(t *testing.T) {
	p := DefaultProfile()
	short, err := p.CycleEnergy(14, 0.05, 60)
	if err != nil {
		t.Fatal(err)
	}
	long, err := p.CycleEnergy(14, 0.05, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if long <= short {
		t.Errorf("longer period should accumulate more sleep energy: %v vs %v", long, short)
	}
	// The increment should be exactly the sleep draw over the delta.
	wantDelta := p.SleepPowerDraw() * (3600 - 60)
	if math.Abs((long-short)-wantDelta) > 1e-12 {
		t.Errorf("sleep delta = %v, want %v", long-short, wantDelta)
	}
}

func TestCycleEnergyRejectsOverfullPeriod(t *testing.T) {
	p := DefaultProfile()
	if _, err := p.CycleEnergy(14, 2.0, 1.0); err == nil {
		t.Error("CycleEnergy should fail when activity exceeds the period")
	}
}

func TestEnergyGapSF7vsSF12Shape(t *testing.T) {
	// The paper's motivation: per-transmission energy gap between short
	// and long air times is large, but the whole-cycle gap shrinks once
	// sleep dominates (they report ~4x for realistic duty cycles).
	p := DefaultProfile()
	const (
		airFast = 0.070 // ~SF7 air time for the paper's 21-byte payload
		airSlow = 1.810 // ~SF12
		period  = 600.0
	)
	txGap := p.TxEnergy(14, airSlow) / p.TxEnergy(14, airFast)
	if txGap < 20 || txGap > 30 {
		t.Errorf("TX-only energy gap = %.1f, want ~25x", txGap)
	}
	fast, err := p.CycleEnergy(14, airFast, period)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := p.CycleEnergy(14, airSlow, period)
	if err != nil {
		t.Fatal(err)
	}
	cycleGap := slow / fast
	if cycleGap < 1.5 || cycleGap > 10 {
		t.Errorf("whole-cycle energy gap = %.2f, want within [1.5, 10]", cycleGap)
	}
	if cycleGap >= txGap {
		t.Errorf("sleep should compress the gap: cycle %.1f >= tx %.1f", cycleGap, txGap)
	}
}

func TestTransmissionEnergyMonotoneInPower(t *testing.T) {
	p := DefaultProfile()
	f := func(rawTp uint8, rawAir uint16) bool {
		tp1 := 2 + float64(rawTp%12)
		tp2 := tp1 + 1
		air := 0.01 + float64(rawAir)/65535.0
		return p.TransmissionEnergy(tp2, air) >= p.TransmissionEnergy(tp1, air)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBattery(t *testing.T) {
	b := NewBatteryFromMilliampHours(2400, 3.3)
	want := 2.4 * 3600 * 3.3 // 28512 J
	if math.Abs(b.CapacityJoules-want) > 1e-9 {
		t.Errorf("capacity = %v, want %v", b.CapacityJoules, want)
	}
	if got := b.LifetimeSeconds(1); math.Abs(got-want) > 1e-9 {
		t.Errorf("lifetime at 1 W = %v, want %v", got, want)
	}
	if got := b.LifetimeSeconds(0); !math.IsInf(got, 1) {
		t.Errorf("lifetime at 0 W = %v, want +Inf", got)
	}
}

func TestBatteryLifetimeScalesInversely(t *testing.T) {
	b := NewBatteryFromMilliampHours(1000, 3.3)
	l1 := b.LifetimeSeconds(0.001)
	l2 := b.LifetimeSeconds(0.002)
	if math.Abs(l1/l2-2) > 1e-12 {
		t.Errorf("halving power should double lifetime: %v vs %v", l1, l2)
	}
}
