package lora

import (
	"fmt"
	"math"
)

// Channel describes one uplink frequency channel.
type Channel struct {
	// Index is the 0-based position in the regional plan.
	Index int
	// CenterHz is the carrier center frequency in Hz.
	CenterHz float64
	// BandwidthHz is the channel bandwidth in Hz.
	BandwidthHz float64
}

// Plan is a regional uplink channel plan. The paper restricts gateways to
// eight 125 kHz uplink channels in both the EU868 and US915 bands so that
// every end device can be heard by all surrounding gateways.
type Plan struct {
	// Name identifies the plan, e.g. "EU868".
	Name string
	// Uplink lists the uplink channels gateways listen on.
	Uplink []Channel
	// MinTxPowerDBm and MaxTxPowerDBm bound the configurable transmission
	// power, and TxPowerStepDBm is the step between levels.
	MinTxPowerDBm, MaxTxPowerDBm, TxPowerStepDBm float64
}

// EU868 returns the European 868 MHz plan used by the paper's model
// section: eight 125 kHz uplink channels and 2..14 dBm transmission power
// in 2 dBm steps.
func EU868() Plan {
	up := make([]Channel, 0, 8)
	// The three mandatory channels plus five commonly provisioned ones,
	// 200 kHz apart starting at 867.1 MHz.
	freqs := []float64{868.1e6, 868.3e6, 868.5e6, 867.1e6, 867.3e6, 867.5e6, 867.7e6, 867.9e6}
	for i, f := range freqs {
		up = append(up, Channel{Index: i, CenterHz: f, BandwidthHz: 125e3})
	}
	return Plan{
		Name:           "EU868",
		Uplink:         up,
		MinTxPowerDBm:  2,
		MaxTxPowerDBm:  14,
		TxPowerStepDBm: 2,
	}
}

// US915Sub1 returns the eight-channel 902.3–903.7 MHz sub-band the paper's
// evaluation configures (125 kHz channels, 200 kHz spacing). US915 end
// devices may transmit up to 20 dBm.
func US915Sub1() Plan {
	up := make([]Channel, 0, 8)
	for i := 0; i < 8; i++ {
		up = append(up, Channel{
			Index:       i,
			CenterHz:    902.3e6 + 200e3*float64(i),
			BandwidthHz: 125e3,
		})
	}
	return Plan{
		Name:           "US915-sub1",
		Uplink:         up,
		MinTxPowerDBm:  2,
		MaxTxPowerDBm:  20,
		TxPowerStepDBm: 2,
	}
}

// MaxTxPowerLevels bounds a plan's power ladder: Validate rejects a plan
// whose TxPowerLevels would hold more. A LinkADRReq addresses only 16
// power indices, and the model's evaluator tabulates at most this many
// levels.
const MaxTxPowerLevels = 64

// NumChannels returns the number of uplink channels in the plan.
func (p Plan) NumChannels() int { return len(p.Uplink) }

// TxPowerLevels enumerates the configurable transmission power levels in
// dBm, from MinTxPowerDBm to MaxTxPowerDBm inclusive.
func (p Plan) TxPowerLevels() []float64 {
	if p.TxPowerStepDBm <= 0 {
		return []float64{p.MaxTxPowerDBm}
	}
	var levels []float64
	for tp := p.MinTxPowerDBm; tp <= p.MaxTxPowerDBm+1e-9; tp += p.TxPowerStepDBm {
		levels = append(levels, tp)
	}
	return levels
}

// TxPowerIndex maps a transmission power in dBm onto the regional MAC
// power index carried by LinkADRReq: index 0 is MaxTxPowerDBm, and each
// index steps down by TxPowerStepDBm. The second return is false when
// tpDBm is not a level of the plan.
func (p Plan) TxPowerIndex(tpDBm float64) (int, bool) {
	if p.TxPowerStepDBm <= 0 {
		if tpDBm == p.MaxTxPowerDBm {
			return 0, true
		}
		return 0, false
	}
	if tpDBm > p.MaxTxPowerDBm+1e-9 || tpDBm < p.MinTxPowerDBm-1e-9 {
		return 0, false
	}
	steps := (p.MaxTxPowerDBm - tpDBm) / p.TxPowerStepDBm
	idx := int(steps + 0.5)
	if diff := steps - float64(idx); diff > 1e-6 || diff < -1e-6 {
		return 0, false
	}
	return idx, true
}

// TxPowerForIndex inverts TxPowerIndex. The second return is false when
// the index falls below the plan's minimum power.
func (p Plan) TxPowerForIndex(idx int) (float64, bool) {
	if idx < 0 {
		return 0, false
	}
	tp := p.MaxTxPowerDBm - float64(idx)*p.TxPowerStepDBm
	if tp < p.MinTxPowerDBm-1e-9 {
		return 0, false
	}
	return tp, true
}

// Validate checks structural invariants of the plan.
func (p Plan) Validate() error {
	if len(p.Uplink) == 0 {
		return fmt.Errorf("lora: plan %q has no uplink channels", p.Name)
	}
	for i, ch := range p.Uplink {
		if ch.Index != i {
			return fmt.Errorf("lora: plan %q channel %d has index %d", p.Name, i, ch.Index)
		}
		if ch.CenterHz <= 0 || ch.BandwidthHz <= 0 {
			return fmt.Errorf("lora: plan %q channel %d has non-positive frequency or bandwidth", p.Name, i)
		}
	}
	for _, v := range [...]float64{p.MinTxPowerDBm, p.MaxTxPowerDBm, p.TxPowerStepDBm} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("lora: plan %q has a non-finite TX power bound or step", p.Name)
		}
	}
	if p.MinTxPowerDBm > p.MaxTxPowerDBm {
		return fmt.Errorf("lora: plan %q has min TX power above max", p.Name)
	}
	// Count the ladder as TxPowerLevels accumulates it, so a step too
	// small to move the level fails here instead of looping there.
	if p.TxPowerStepDBm > 0 {
		n := 0
		for tp := p.MinTxPowerDBm; tp <= p.MaxTxPowerDBm+1e-9; tp += p.TxPowerStepDBm {
			if n++; n > MaxTxPowerLevels {
				return fmt.Errorf("lora: plan %q has more than %d TX power levels", p.Name, MaxTxPowerLevels)
			}
		}
	}
	return nil
}
