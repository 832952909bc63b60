// Package adrloop simulates the closed-loop dynamics of network-side
// LoRaWAN ADR: devices join on conservative defaults (SF12, maximum
// power), the network server measures each device's best uplink SNR over
// an epoch of packets, applies the standard ADR adjustment, and repeats.
// The paper's related work (Li et al.) identifies convergence as ADR's
// bottleneck; this package measures that convergence and lets experiments
// compare the converged ADR state against EF-LoRa's one-shot allocation.
package adrloop

import (
	"fmt"
	"math"

	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/sim"
	"eflora/internal/stats"
)

// Config controls the closed loop.
type Config struct {
	// Epochs is the number of adjustment rounds (default 20).
	Epochs int
	// PacketsPerEpoch per device between adjustments (default 20, the
	// standard ADR measurement window).
	PacketsPerEpoch int
	// Seed drives the per-epoch simulations.
	Seed uint64
}

// marginDB is the ADR installation margin.
const marginDB = 10

func (c Config) withDefaults() Config {
	if c.Epochs <= 0 {
		c.Epochs = 20
	}
	if c.PacketsPerEpoch <= 0 {
		c.PacketsPerEpoch = 20
	}
	return c
}

// EpochStats summarizes one adjustment round.
type EpochStats struct {
	// Epoch index (0-based; stats describe traffic *before* the epoch's
	// adjustment).
	Epoch int
	// MeanPRR and MinEE are measured over the epoch's packets.
	MeanPRR, MinEE float64
	// Changed counts devices whose (SF, TP) the server adjusted at the
	// end of the epoch.
	Changed int
}

// Result is the loop outcome.
type Result struct {
	// PerEpoch holds one entry per simulated epoch.
	PerEpoch []EpochStats
	// Final is the allocation after the last epoch.
	Final model.Allocation
	// ConvergedAt is the first epoch whose adjustment changed nobody
	// (-1 when the loop never stabilized within Config.Epochs).
	ConvergedAt int
}

// Run executes the closed loop on a network. Devices join at SF12 and
// maximum power with round-robin channels (the LoRaWAN join default), and
// only the server-side ADR moves them afterwards.
func Run(net *model.Network, p model.Params, cfg Config) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := net.Validate(p); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n := net.N()
	a := model.NewAllocation(n, p.Plan)
	for i := 0; i < n; i++ {
		a.SF[i] = lora.MaxSF
		a.TPdBm[i] = p.Plan.MaxTxPowerDBm
		a.Channel[i] = i % p.Plan.NumChannels()
	}
	res := &Result{ConvergedAt: -1}
	step := p.Plan.TxPowerStepDBm
	if step <= 0 {
		step = 2
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		simRes, err := sim.Run(net, p, a, sim.Config{
			PacketsPerDevice: cfg.PacketsPerEpoch,
			Seed:             cfg.Seed + uint64(epoch)*2654435761,
			MeasureSNR:       true,
		})
		if err != nil {
			return nil, err
		}
		es := EpochStats{
			Epoch:   epoch,
			MeanPRR: stats.Mean(simRes.PRR),
			MinEE:   stats.Percentile(simRes.EE, 0.02),
		}
		// Server-side adjustment.
		for i := 0; i < n; i++ {
			sf, tp := a.SF[i], a.TPdBm[i]
			if simRes.Delivered[i] == 0 {
				// Link-dead backoff: raise power first, then SF.
				switch {
				case tp < p.Plan.MaxTxPowerDBm:
					tp = math.Min(tp+step, p.Plan.MaxTxPowerDBm)
				case sf < lora.MaxSF:
					sf++
				}
			} else {
				// Standard ADR: spend the margin over the current SF's
				// requirement in 3 dB steps, first on SF, then on power.
				snr := simRes.MaxSNRdB[i]
				steps := int(math.Floor((snr - lora.SNRThresholdDB(sf) - marginDB) / 3))
				for steps > 0 && sf > lora.MinSF {
					sf--
					steps--
				}
				for steps > 0 && tp-step >= p.Plan.MinTxPowerDBm {
					tp -= step
					steps--
				}
				// A negative margin is left to the link-dead backoff
				// above: server-side ADR only ever lowers SF/power
				// (raising is the device's ADRACKReq fallback), which is
				// what keeps the loop from oscillating around the margin
				// boundary.
			}
			if sf != a.SF[i] || tp != a.TPdBm[i] {
				a.SF[i], a.TPdBm[i] = sf, tp
				es.Changed++
			}
		}
		res.PerEpoch = append(res.PerEpoch, es)
		if es.Changed == 0 && res.ConvergedAt < 0 {
			res.ConvergedAt = epoch
		}
	}
	res.Final = a.Clone()
	return res, nil
}

// Summary renders the loop trajectory.
func (r *Result) Summary() string {
	out := ""
	for _, e := range r.PerEpoch {
		out += fmt.Sprintf("epoch %2d: meanPRR %.3f minEE %.1f bits/J changed %d\n",
			e.Epoch, e.MeanPRR, e.MinEE, e.Changed)
	}
	if r.ConvergedAt >= 0 {
		out += fmt.Sprintf("converged at epoch %d\n", r.ConvergedAt)
	} else {
		out += "did not converge\n"
	}
	return out
}
