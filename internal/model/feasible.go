package model

import (
	"math"

	"eflora/internal/lora"
)

// bestGain returns the largest device→gateway attenuation for device i,
// i.e. the gain toward its best (usually nearest) gateway.
func bestGain(gains [][]float64, i int) float64 {
	best := 0.0
	for _, g := range gains[i] {
		if g > best {
			best = g
		}
	}
	return best
}

// MinFeasibleSF returns the smallest spreading factor at which device i,
// transmitting at tpDBm, is received above the corresponding sensitivity by
// at least one gateway (mean channel, no fading margin). ok is false when
// even SF12 cannot close the link at that power.
func MinFeasibleSF(gains [][]float64, i int, tpDBm float64) (lora.SF, bool) {
	g := bestGain(gains, i)
	if g <= 0 {
		return lora.MaxSF, false
	}
	rxDBm := tpDBm + lora.LinearToDB(g)
	return lora.MinSFForDistance(rxDBm)
}

// MinFeasibleTP returns the lowest transmission power level of the plan at
// which device i can reach at least one gateway using spreading factor s.
// ok is false when even the maximum power is insufficient.
func MinFeasibleTP(gains [][]float64, i int, s lora.SF, plan lora.Plan) (float64, bool) {
	g := bestGain(gains, i)
	if g <= 0 {
		return plan.MaxTxPowerDBm, false
	}
	need := lora.SensitivityDBm(s) - lora.LinearToDB(g)
	// Walk the plan's power ladder with the same accumulation
	// TxPowerLevels uses, so the returned level is bit-identical to a
	// scan of that slice without materializing it (this sits on the
	// per-device path of every baseline allocator).
	if plan.TxPowerStepDBm <= 0 {
		if plan.MaxTxPowerDBm >= need {
			return plan.MaxTxPowerDBm, true
		}
		return plan.MaxTxPowerDBm, false
	}
	for tp := plan.MinTxPowerDBm; tp <= plan.MaxTxPowerDBm+1e-9; tp += plan.TxPowerStepDBm {
		if tp >= need {
			return tp, true
		}
	}
	return plan.MaxTxPowerDBm, false
}

// ReachableGateways returns the indices of gateways that receive device i
// above the sensitivity of spreading factor s when transmitting at tpDBm.
func ReachableGateways(gains [][]float64, i int, s lora.SF, tpDBm float64) []int {
	ssMW := lora.DBmToMilliwatts(lora.SensitivityDBm(s))
	tpMW := lora.DBmToMilliwatts(tpDBm)
	var out []int
	for k, g := range gains[i] {
		if tpMW*g >= ssMW {
			out = append(out, k)
		}
	}
	return out
}

// BestGainDB returns device i's gain toward its best gateway in dB, or
// -Inf when no gateway hears it at all.
func BestGainDB(gains [][]float64, i int) float64 {
	g := bestGain(gains, i)
	if g <= 0 {
		return math.Inf(-1)
	}
	return lora.LinearToDB(g)
}

// FeasibleDB is Feasible for a device whose best-gateway gain is
// bestGainDB (see BestGainDB), so a scan over one device's (SF, TP)
// pairs takes the logarithm once.
func FeasibleDB(bestGainDB float64, s lora.SF, tpDBm float64) bool {
	return tpDBm+bestGainDB >= lora.SensitivityDBm(s)
}

// Feasible reports whether device i reaches at least one gateway with
// spreading factor s at power tpDBm.
func Feasible(gains [][]float64, i int, s lora.SF, tpDBm float64) bool {
	return FeasibleDB(BestGainDB(gains, i), s, tpDBm)
}
