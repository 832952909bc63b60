// Package lora models the LoRa physical layer: spreading factors,
// time-on-air, receiver sensitivities, SNR decoding thresholds, and the
// regional channel plans used by LoRaWAN uplinks.
//
// All numeric tables follow the paper "Towards Energy-Fairness in LoRa
// Networks" (Table IV) and the Semtech SX127x/SX1301 datasheets it cites.
// Link-budget math in this repository is done in linear milliwatts; this
// package owns the dB/dBm conversions.
package lora

import (
	"fmt"
	"math"
)

// SF is a LoRa spreading factor. A chirp symbol encodes SF raw bits; each
// +1 step doubles the symbol period (halving data rate) and buys roughly
// 2.5 dB of receiver sensitivity.
type SF int

// The spreading factors available to LoRaWAN end devices.
const (
	SF7  SF = 7
	SF8  SF = 8
	SF9  SF = 9
	SF10 SF = 10
	SF11 SF = 11
	SF12 SF = 12
)

// MinSF and MaxSF bound the valid spreading factor range.
const (
	MinSF = SF7
	MaxSF = SF12
)

// SFs lists all valid spreading factors in increasing order.
func SFs() []SF {
	return []SF{SF7, SF8, SF9, SF10, SF11, SF12}
}

// Valid reports whether s is one of SF7..SF12.
func (s SF) Valid() bool { return s >= MinSF && s <= MaxSF }

// String implements fmt.Stringer.
func (s SF) String() string { return fmt.Sprintf("SF%d", int(s)) }

// snrThresholdDB is the minimum SNR (dB) required to demodulate each SF at
// 125 kHz bandwidth (paper Table IV), indexed by SF.
var snrThresholdDB = [...]float64{
	SF7:  -6,
	SF8:  -9,
	SF9:  -12,
	SF10: -15,
	SF11: -17.5,
	SF12: -20,
}

// sensitivityDBm is the gateway receiver sensitivity (dBm) for each SF at
// 125 kHz bandwidth (paper Table IV), indexed by SF.
var sensitivityDBm = [...]float64{
	SF7:  -123,
	SF8:  -126,
	SF9:  -129,
	SF10: -132,
	SF11: -134.5,
	SF12: -137,
}

// SNRThresholdDB returns the minimum SNR in dB needed to decode a packet
// sent with spreading factor s (paper Table IV). It panics on an invalid SF
// because the tables are a fixed physical contract, not user input.
func SNRThresholdDB(s SF) float64 {
	if !s.Valid() {
		panic(fmt.Sprintf("lora: invalid spreading factor %d", int(s)))
	}
	return snrThresholdDB[s]
}

// SensitivityDBm returns the receiver sensitivity in dBm for spreading
// factor s at 125 kHz bandwidth (paper Table IV).
func SensitivityDBm(s SF) float64 {
	if !s.Valid() {
		//eflora:alloc-ok panic message on the programming-error path only, never taken for valid SFs
		panic(fmt.Sprintf("lora: invalid spreading factor %d", int(s)))
	}
	return sensitivityDBm[s]
}

// SensitivityFromNoise computes the sensitivity in dBm from first
// principles (paper Eq. 11): thermal noise floor + receiver noise figure +
// SNR threshold. bwHz is the channel bandwidth and nfDB the receiver noise
// figure (6 dB is typical for SX1301-based gateways).
func SensitivityFromNoise(s SF, bwHz, nfDB float64) float64 {
	return -174 + 10*math.Log10(bwHz) + nfDB + SNRThresholdDB(s)
}

// DBmToMilliwatts converts a power level in dBm to linear milliwatts.
func DBmToMilliwatts(dbm float64) float64 { return math.Pow(10, dbm/10) }

// MilliwattsToDBm converts a linear power in milliwatts to dBm.
// It returns -Inf for zero and NaN for negative power.
func MilliwattsToDBm(mw float64) float64 { return 10 * math.Log10(mw) }

// DBToLinear converts a ratio expressed in dB to a linear ratio.
func DBToLinear(db float64) float64 { return math.Pow(10, db/10) }

// LinearToDB converts a linear ratio to dB.
func LinearToDB(lin float64) float64 { return 10 * math.Log10(lin) }

// CodingRate is the LoRa forward-error-correction rate denominator: a value
// cr in [5,8] means 4 information bits are sent as cr coded bits (4/cr).
// The paper fixes CR = 7 (rate 4/7), the cheapest rate that corrects a
// single bit error.
type CodingRate int

// Valid coding rates.
const (
	CR45 CodingRate = 5 // rate 4/5
	CR46 CodingRate = 6 // rate 4/6
	CR47 CodingRate = 7 // rate 4/7 (paper default)
	CR48 CodingRate = 8 // rate 4/8
)

// Valid reports whether cr is in [5,8].
func (cr CodingRate) Valid() bool { return cr >= CR45 && cr <= CR48 }

// String implements fmt.Stringer.
func (cr CodingRate) String() string { return fmt.Sprintf("4/%d", int(cr)) }

// PreambleSymbols is the symbol count of the LoRaWAN preamble plus PHY
// sync overhead used by the paper's time-on-air formula (Eq. 4): the
// standard 12.25-symbol preamble plus 8 header symbols.
const PreambleSymbols = 20.25

// PayloadSymbols returns n_pl, the number of payload symbols for a packet
// with payloadBytes of PHY payload at spreading factor s (paper Eq. 4).
// lowDataRateOptimize (DE) spreads symbols further at slow rates; LoRaWAN
// mandates it for SF11/SF12 at 125 kHz.
func PayloadSymbols(payloadBytes int, s SF, cr CodingRate, lowDataRateOptimize bool) int {
	de := 0
	if lowDataRateOptimize {
		de = 1
	}
	num := 8*payloadBytes - 4*int(s) + 28 + 16
	den := 4 * (int(s) - 2*de)
	blocks := int(math.Ceil(float64(num) / float64(den)))
	n := blocks * int(cr)
	if n < 0 {
		return 0
	}
	return n
}

// SymbolPeriod returns the duration of one chirp symbol in seconds:
// 2^SF / BW (paper Section III-A).
func SymbolPeriod(s SF, bwHz float64) float64 {
	return math.Exp2(float64(s)) / bwHz
}

// LowDataRateOptimize reports whether LoRaWAN enables the low-data-rate
// optimisation for the given SF and bandwidth (SF11/SF12 at 125 kHz).
func LowDataRateOptimize(s SF, bwHz float64) bool {
	return bwHz <= 125e3 && s >= SF11
}

// TimeOnAir returns the full in-the-air duration in seconds of a packet
// with payloadBytes of PHY payload (paper Eq. 4):
//
//	T = (20.25 + n_pl) * 2^SF / BW
//
// The low-data-rate optimisation is applied automatically per LoRaWAN
// rules (SF11/SF12 at 125 kHz).
func TimeOnAir(payloadBytes int, s SF, bwHz float64, cr CodingRate) float64 {
	de := LowDataRateOptimize(s, bwHz)
	n := PreambleSymbols + float64(PayloadSymbols(payloadBytes, s, cr, de))
	return n * SymbolPeriod(s, bwHz)
}

// BitRate returns the raw information bit rate in bits/second for a given
// SF, bandwidth and coding rate: SF * (4/CR) / symbolPeriod.
func BitRate(s SF, bwHz float64, cr CodingRate) float64 {
	return float64(s) * (4 / float64(cr)) / SymbolPeriod(s, bwHz)
}

// MinSFForDistance returns the smallest spreading factor whose receiver
// sensitivity is met by rxPowerDBmAt(s), a callback giving the received
// power in dBm when transmitting with spreading factor s (received power is
// SF-independent but the callback form lets callers fold in per-SF
// constraints). ok is false when even SF12 cannot close the link.
func MinSFForDistance(rxPowerDBm float64) (s SF, ok bool) {
	for _, s := range SFs() {
		if rxPowerDBm >= SensitivityDBm(s) {
			return s, true
		}
	}
	return MaxSF, false
}
