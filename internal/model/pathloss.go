// Package model implements the analytical multi-gateway LoRa network model
// of the paper's Section III: path loss (Eq. 9), SNR against noise alone
// (Eq. 8/16 with no interference power), per-link packet delivery ratio
// under Rayleigh fading (Eq. 10), the gateway eight-packet capacity factor
// (Eq. 12), multi-gateway packet reception ratio (Eq. 13) and per-device
// energy efficiency (Eq. 17). Co-SF interference is a collision-survival
// factor over the unslotted-ALOHA vulnerable window, in place of the ALOHA
// contention of Eq. 14-15; SFs are orthogonal.
package model

import (
	"fmt"
	"math"
)

// SpeedOfLight in meters per second.
const SpeedOfLight = 299_792_458.0

// PathLoss is the attenuation model of paper Eq. 9 with an optional
// non-line-of-sight extension. The base attenuation is the literal power-law
// form the paper (and Georgiou & Raza) use,
//
//	a(d) = (c / (4π·f·d))^β,
//
// and an optional extra exponent kicks in beyond a breakpoint distance,
// modelling NLoS devices whose loss slope steepens after the first
// obstruction (asymptotic exponent β + extra). With ExtraExponent = 0 this
// is exactly Eq. 9.
type PathLoss struct {
	// FrequencyHz is the carrier frequency f.
	FrequencyHz float64
	// Exponent is the path-loss exponent β applied from the transmitter.
	Exponent float64
	// ExtraExponent adds additional slope beyond BreakpointM (NLoS).
	ExtraExponent float64
	// BreakpointM is where the extra slope starts; ignored when
	// ExtraExponent is 0.
	BreakpointM float64
}

// LoSPathLoss returns the paper's line-of-sight model: literal Eq. 9 with
// the given exponent (the paper uses β = 2.7 for suburban LoS).
func LoSPathLoss(freqHz, beta float64) PathLoss {
	return PathLoss{FrequencyHz: freqHz, Exponent: beta}
}

// NLoSPathLoss returns a non-line-of-sight model whose loss slope steepens
// to betaNLoS beyond the breakpoint. The paper quotes β = 4 for urban NLoS;
// applying that slope only beyond a breakpoint keeps the literal power-law
// form physical (Eq. 9 with β = 4 from d = 0 would cap coverage below
// 200 m).
func NLoSPathLoss(freqHz, betaLoS, betaNLoS, breakpointM float64) PathLoss {
	return PathLoss{
		FrequencyHz:   freqHz,
		Exponent:      betaLoS,
		ExtraExponent: betaNLoS - betaLoS,
		BreakpointM:   breakpointM,
	}
}

// Gain returns the linear attenuation factor a(d) in (0, 1] for a link of
// d meters. Distances below one meter are clamped to one meter so the
// near-field singularity of the power-law form cannot produce gains above
// the free-space value at 1 m.
func (pl PathLoss) Gain(d float64) float64 {
	if d < 1 {
		d = 1
	}
	ref := SpeedOfLight / (4 * math.Pi * pl.FrequencyHz)
	g := math.Pow(ref/d, pl.Exponent)
	if pl.ExtraExponent > 0 && d > pl.BreakpointM && pl.BreakpointM > 0 {
		g *= math.Pow(pl.BreakpointM/d, pl.ExtraExponent)
	}
	return g
}

// GainDB returns the attenuation in dB (a negative number).
func (pl PathLoss) GainDB(d float64) float64 {
	return 10 * math.Log10(pl.Gain(d))
}

// MaxRange returns the largest distance at which a transmitter at tpDBm is
// received above rxFloorDBm, found by bisection. It returns 0 when even
// 1 m cannot close the link.
func (pl PathLoss) MaxRange(tpDBm, rxFloorDBm float64) float64 {
	rx := func(d float64) float64 { return tpDBm + pl.GainDB(d) }
	if rx(1) < rxFloorDBm {
		return 0
	}
	lo, hi := 1.0, 2.0
	for rx(hi) >= rxFloorDBm {
		hi *= 2
		if hi > 1e9 {
			return hi
		}
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if rx(mid) >= rxFloorDBm {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Validate checks the model's parameters.
func (pl PathLoss) Validate() error {
	if pl.FrequencyHz <= 0 {
		return fmt.Errorf("model: path loss frequency %v must be positive", pl.FrequencyHz)
	}
	if pl.Exponent <= 0 {
		return fmt.Errorf("model: path loss exponent %v must be positive", pl.Exponent)
	}
	if pl.ExtraExponent < 0 {
		return fmt.Errorf("model: extra exponent %v must be non-negative", pl.ExtraExponent)
	}
	if pl.ExtraExponent > 0 && pl.BreakpointM <= 0 {
		return fmt.Errorf("model: extra exponent requires a positive breakpoint")
	}
	return nil
}
