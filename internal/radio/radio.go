// Package radio models the energy consumption of a LoRaWAN class-A end
// device following the measurement-based breakdown of Casals et al.,
// "Modeling the Energy Performance of LoRaWAN" (Sensors 2017), which the
// paper's energy model (Section III-B) builds on: a transmission cycle is
// decomposed into wake-up, radio preparation, the actual in-the-air
// transmission, the two receive windows, post-processing, and sleep. Only
// the TX phase depends on the allocated spreading factor and transmission
// power; the other phases are identical across devices, exactly as the
// paper assumes.
package radio

import (
	"fmt"
	"math"
	"sort"
)

// Profile holds the electrical characteristics of an end device.
type Profile struct {
	// SupplyVoltage in volts (typical LoRa motes run at 3.3 V).
	SupplyVoltage float64

	// Fixed-duration phases of one transmission cycle, excluding TX.
	// Durations in seconds, currents in amperes (Casals et al., Table 4).
	WakeUpDuration   float64
	WakeUpCurrent    float64
	RadioPrepPerTx   float64
	RadioPrepCurrent float64
	RxWindowDuration float64
	RxWindowCurrent  float64
	PostProcDuration float64
	PostProcCurrent  float64

	// SleepCurrent is drawn for the remainder of the reporting period.
	SleepCurrent float64

	// txDBm and txAmp are the TX supply-current interpolation table:
	// txAmp[i] amperes at txDBm[i] dBm, with txDBm sorted ascending.
	// TxCurrent interpolates linearly between entries. Kept as parallel
	// sorted slices so lookups are allocation-free — TxCurrent sits on
	// the allocator's candidate-evaluation hot path.
	txDBm, txAmp []float64
}

// DefaultProfile returns the SX1272/SX1276-class profile used throughout
// the experiments. Values follow Casals et al. (2017) measurements of a
// LoRaWAN module at 3.3 V, rounded: 168.2 mJ-scale transmission cycles and
// microamp sleep.
func DefaultProfile() Profile {
	return Profile{
		SupplyVoltage:    3.3,
		WakeUpDuration:   168.2e-3,
		WakeUpCurrent:    22.1e-3,
		RadioPrepPerTx:   83.8e-3,
		RadioPrepCurrent: 13.3e-3,
		RxWindowDuration: 33.1e-3,
		RxWindowCurrent:  38.1e-3,
		PostProcDuration: 28.0e-3,
		PostProcCurrent:  14.2e-3,
		SleepCurrent:     45e-6,
		// SX1272/76 datasheet TX supply currents (RFO/PA_BOOST path).
		txDBm: []float64{2, 4, 6, 8, 10, 12, 14, 16, 18, 20},
		txAmp: []float64{24e-3, 26e-3, 28e-3, 31e-3, 35e-3, 39e-3, 44e-3, 58e-3, 75e-3, 125e-3},
	}
}

// TxCurrent returns the supply current in amperes while transmitting at
// tpDBm, interpolating linearly between table entries and clamping outside
// the table's range.
func (p Profile) TxCurrent(tpDBm float64) float64 {
	if len(p.txDBm) == 0 {
		return 0
	}
	last := len(p.txDBm) - 1
	if tpDBm <= p.txDBm[0] {
		return p.txAmp[0]
	}
	if tpDBm >= p.txDBm[last] {
		return p.txAmp[last]
	}
	i := sort.SearchFloat64s(p.txDBm, tpDBm)
	if p.txDBm[i] == tpDBm {
		return p.txAmp[i]
	}
	lo, hi := p.txDBm[i-1], p.txDBm[i]
	frac := (tpDBm - lo) / (hi - lo)
	return p.txAmp[i-1] + frac*(p.txAmp[i]-p.txAmp[i-1])
}

// TxPowerDraw returns the electrical power in watts drawn while
// transmitting at tpDBm — the e_{p_i} of the paper's Eq. 3.
func (p Profile) TxPowerDraw(tpDBm float64) float64 {
	return p.SupplyVoltage * p.TxCurrent(tpDBm)
}

// TxEnergy returns the energy in joules for the in-the-air portion of a
// transmission lasting airTimeS seconds at tpDBm (paper Eq. 3:
// E_tx = e_p · T).
func (p Profile) TxEnergy(tpDBm, airTimeS float64) float64 {
	return p.TxPowerDraw(tpDBm) * airTimeS
}

// OverheadEnergy returns the SF- and TP-independent energy of one
// transmission cycle: wake-up, radio preparation, both class-A receive
// windows and post-processing.
func (p Profile) OverheadEnergy() float64 {
	v := p.SupplyVoltage
	return v * (p.WakeUpDuration*p.WakeUpCurrent +
		p.RadioPrepPerTx*p.RadioPrepCurrent +
		2*p.RxWindowDuration*p.RxWindowCurrent +
		p.PostProcDuration*p.PostProcCurrent)
}

// OverheadDuration returns the duration of the fixed phases in seconds.
func (p Profile) OverheadDuration() float64 {
	return p.WakeUpDuration + p.RadioPrepPerTx + 2*p.RxWindowDuration + p.PostProcDuration
}

// SleepPowerDraw returns the power drawn while sleeping, in watts.
func (p Profile) SleepPowerDraw() float64 {
	return p.SupplyVoltage * p.SleepCurrent
}

// TransmissionEnergy returns E_s, the total energy in joules of one full
// transmission attempt (fixed phases + the SF/TP-dependent air time).
func (p Profile) TransmissionEnergy(tpDBm, airTimeS float64) float64 {
	return p.OverheadEnergy() + p.TxEnergy(tpDBm, airTimeS)
}

// CycleEnergy returns the energy of one reporting period of length
// periodS containing one transmission attempt: the transmission itself
// plus sleep for the rest of the period. It returns an error if the cycle
// activities do not fit in the period.
func (p Profile) CycleEnergy(tpDBm, airTimeS, periodS float64) (float64, error) {
	active := p.OverheadDuration() + airTimeS
	if active > periodS {
		return 0, fmt.Errorf("radio: active time %.3fs exceeds period %.3fs", active, periodS)
	}
	return p.TransmissionEnergy(tpDBm, airTimeS) + p.SleepPowerDraw()*(periodS-active), nil
}

// Battery models a simple energy reservoir.
type Battery struct {
	// CapacityJoules is the total extractable energy.
	CapacityJoules float64
}

// NewBatteryFromMilliampHours builds a battery from the usual mAh rating
// at the given voltage (e.g. 2400 mAh at 3.3 V ≈ 28.5 kJ).
func NewBatteryFromMilliampHours(mah, volts float64) Battery {
	return Battery{CapacityJoules: mah / 1000 * 3600 * volts}
}

// LifetimeSeconds returns how long the battery sustains the given average
// power draw. It returns +Inf for non-positive power.
func (b Battery) LifetimeSeconds(avgPowerW float64) float64 {
	if avgPowerW <= 0 {
		return math.Inf(1)
	}
	return b.CapacityJoules / avgPowerW
}
