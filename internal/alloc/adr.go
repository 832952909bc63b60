package alloc

import (
	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/rng"
)

// ADR implements the standard network-side LoRaWAN Adaptive Data Rate
// algorithm (the Semtech/TTN recipe the paper's related-work section
// surveys): from the best gateway's link SNR, compute the margin over the
// current data rate's demodulation floor plus a 10 dB device margin, then spend
// that margin first on lowering the spreading factor (3 dB less margin
// needed per step, matching Table IV's thresholds) and then on lowering
// transmission power in 2 dB steps. Channels hop pseudo-randomly as in
// LoRaWAN.
//
// ADR is link-local: like Legacy it ignores contention entirely, but
// unlike Legacy it also reduces transmission power, making it a stronger
// energy baseline.
type ADR struct{}

// adrDeviceMarginDB is the installation margin the network server keeps
// in reserve (the TTN default).
const adrDeviceMarginDB = 10.0

// Allocate implements Allocator.
func (ADR) Allocate(net *model.Network, p model.Params, r *rng.RNG) (model.Allocation, error) {
	if err := p.Validate(); err != nil {
		return model.Allocation{}, err
	}
	if err := net.Validate(p); err != nil {
		return model.Allocation{}, err
	}
	gains := model.Gains(net, p)
	a := model.NewAllocation(net.N(), p.Plan)
	for i := 0; i < net.N(); i++ {
		// Best-gateway SNR at maximum power (the server sees the best
		// uplink copy).
		best := 0.0
		for _, g := range gains[i] {
			if g > best {
				best = g
			}
		}
		sf := lora.MaxSF
		tp := p.Plan.MaxTxPowerDBm
		if best > 0 {
			rxDBm := tp + lora.LinearToDB(best)
			snrDB := rxDBm - p.NoiseDBm
			// Lower SF while the margin over the *next* data rate's
			// threshold stays positive.
			sf = lora.MaxSF
			for s := lora.MaxSF; s >= lora.MinSF; s-- {
				if snrDB-lora.SNRThresholdDB(s) >= adrDeviceMarginDB {
					sf = s
				}
			}
			// Spend remaining margin on power, in plan steps, keeping
			// the device margin intact.
			slack := snrDB - lora.SNRThresholdDB(sf) - adrDeviceMarginDB
			step := p.Plan.TxPowerStepDBm
			if step <= 0 {
				step = 2
			}
			for tp-step >= p.Plan.MinTxPowerDBm && slack >= step {
				tp -= step
				slack -= step
			}
		}
		a.SF[i] = sf
		a.TPdBm[i] = tp
		a.Channel[i] = r.Intn(p.Plan.NumChannels())
	}
	return a, nil
}

var _ Allocator = ADR{}
