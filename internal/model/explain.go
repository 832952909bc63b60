package model

import (
	"fmt"
	"math"
	"strings"

	"eflora/internal/lora"
)

// GatewayBreakdown decomposes one device→gateway link of the model.
type GatewayBreakdown struct {
	// Gateway index and link distance in meters.
	Gateway   int
	DistanceM float64
	// RxPowerDBm is the mean received power (no fading).
	RxPowerDBm float64
	// FadeMarginDB is the mean rx power minus the binding floor
	// (max of SNR-threshold noise floor and sensitivity).
	FadeMarginDB float64
	// PFade is P{the Rayleigh draw clears the floor}.
	PFade float64
	// Theta is the gateway-capacity factor (paper Eq. 12).
	Theta float64
	// CollisionExposure is the expected count of visible co-group
	// overlaps at this gateway.
	CollisionExposure float64
}

// Breakdown explains a device's modelled energy efficiency.
type Breakdown struct {
	Device  int
	SF      lora.SF
	TPdBm   float64
	Channel int
	// GroupSize is the number of co-(SF,channel) devices incl. this one.
	GroupSize int
	// DutyCycle is T_i/T_g.
	DutyCycle float64
	// AirTimeS is the packet time-on-air.
	AirTimeS float64
	// EnergyPerTxJ is E_s.
	EnergyPerTxJ float64
	// CollisionSurvival is the shared overlap-survival factor.
	CollisionSurvival float64
	// PRR and EE are the modelled packet reception ratio and energy
	// efficiency (bits/J).
	PRR, EE  float64
	Gateways []GatewayBreakdown
}

// Explain decomposes device i's cached energy efficiency into its
// physical factors, for debugging allocations and reporting.
func (e *Evaluator) Explain(i int) Breakdown {
	gr := e.groupOf(e.sf[i], e.ch[i])
	sf := e.sf[i]
	floorMW := e.floorMW[sfIndex(sf)]
	theta := e.thetaRow(i)
	b := Breakdown{
		Device:       i,
		SF:           sf,
		TPdBm:        e.tpDBm[i],
		Channel:      e.ch[i],
		GroupSize:    gr.count,
		DutyCycle:    e.alpha[i],
		AirTimeS:     e.toaBySF[sfIndex(sf)],
		EnergyPerTxJ: e.es[i],
		PRR:          e.PRR(i),
		EE:           e.ee[i],
	}
	var wSum, wExp float64
	for k := 0; k < e.g; k++ {
		pa := e.tpMW[i] * e.gain[i][k]
		gb := GatewayBreakdown{
			Gateway:   k,
			DistanceM: e.net.Devices[i].Dist(e.net.Gateways[k]),
		}
		if pa > 0 {
			gb.RxPowerDBm = lora.MilliwattsToDBm(pa)
			gb.FadeMarginDB = gb.RxPowerDBm - lora.MilliwattsToDBm(floorMW)
			gb.PFade = e.fade[i][k]
			gb.Theta = theta[k]
			visEx := gr.visSum[k] - e.vis[i][k]
			qEx := gr.qSum[k] - e.q[i][k]
			gb.CollisionExposure = e.alpha[i]*visEx + qEx
			wSum += e.vis[i][k]
			wExp += e.vis[i][k] * gb.CollisionExposure
		} else {
			gb.RxPowerDBm = math.Inf(-1)
			gb.FadeMarginDB = math.Inf(-1)
		}
		b.Gateways = append(b.Gateways, gb)
	}
	b.CollisionSurvival = 1.0
	if wSum > 0 {
		b.CollisionSurvival = math.Exp(-wExp / wSum)
	}
	return b
}

// String renders the breakdown for humans.
func (b Breakdown) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "device %d: %v @ %g dBm ch%d | group %d devices, duty %.4f\n",
		b.Device, b.SF, b.TPdBm, b.Channel, b.GroupSize, b.DutyCycle)
	fmt.Fprintf(&sb, "  air time %.1f ms, %.2f mJ/attempt, collision survival %.3f\n",
		b.AirTimeS*1e3, b.EnergyPerTxJ*1e3, b.CollisionSurvival)
	fmt.Fprintf(&sb, "  PRR %.3f -> EE %.1f bits/J\n", b.PRR, b.EE)
	for _, g := range b.Gateways {
		fmt.Fprintf(&sb, "  gw %d @ %.0f m: rx %.1f dBm (margin %+.1f dB) pFade %.3f theta %.3f exposure %.3f\n",
			g.Gateway, g.DistanceM, g.RxPowerDBm, g.FadeMarginDB, g.PFade, g.Theta, g.CollisionExposure)
	}
	return sb.String()
}
