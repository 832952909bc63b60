package downlink

import (
	"fmt"
	"math"

	"eflora/internal/engine"
	"eflora/internal/ingest"
	"eflora/internal/lora"
	"eflora/internal/lorawan"
)

// GatewaySim is the replay load generator's model of a packet
// forwarder's transmit path: it judges a PULL_RESP the way a real
// concentrator does (schedulability, frequency) and registers the
// transmission as a half-duplex ACK window on the reception engine, so
// uplinks arriving during the downlink are blocked.
type GatewaySim struct {
	// Eng is the gateway's reception engine (Config.HalfDuplex set).
	Eng *engine.Gateway
	// ValidFreqMHz lists the transmit frequencies the gateway accepts
	// (uplink channels plus the RX2 frequency). Empty accepts any.
	ValidFreqMHz []float64
}

// maxAheadS bounds how far in the future a tmst may schedule (reference
// forwarder: ~15 s).
const maxAheadS = 15

// Transmit judges one PULL_RESP at simulation time nowS, with gateway
// tmst 0 anchored at simulation time 0. On acceptance it blocks the
// engine for the transmission's airtime and returns the TX_ACK error
// NONE plus the on-air interval; otherwise it returns the forwarder's
// error string.
func (g *GatewaySim) Transmit(tx *ingest.TXPK, nowS float64) (startS, endS float64, errStr string) {
	startS = float64(tx.Tmst) / 1e6
	if startS < nowS {
		return startS, startS, ingest.TxErrTooLate
	}
	if startS > nowS+maxAheadS {
		return startS, startS, ingest.TxErrTooEarly
	}
	if len(g.ValidFreqMHz) > 0 {
		ok := false
		for _, f := range g.ValidFreqMHz {
			if math.Abs(f-tx.Freq) < 1e-4 {
				ok = true
				break
			}
		}
		if !ok {
			return startS, startS, ingest.TxErrTxFreq
		}
	}
	sf, bwHz, err := ingest.ParseDatr(tx.Datr)
	if err != nil {
		return startS, startS, ingest.TxErrTxFreq
	}
	cr, ok := ingest.ParseCodr(tx.Codr)
	if !ok {
		return startS, startS, ingest.TxErrTxFreq
	}
	phy, err := tx.Payload()
	if err != nil {
		return startS, startS, ingest.TxErrTxFreq
	}
	endS = startS + lora.TimeOnAir(len(phy), sf, bwHz, cr)
	if g.Eng != nil {
		g.Eng.AddAckWindow(startS, endS)
	}
	return startS, endS, ingest.TxErrNone
}

// DeviceSim is the replay load generator's model of a Class-A end
// device: after each uplink it opens RX1 (uplink channel/data rate) and
// RX2 (fixed channel), and applies a LinkADRReq only when a downlink
// actually lands inside one of those windows.
type DeviceSim struct {
	DevAddr uint32
	Keys    lorawan.Keys
	Plan    lora.Plan

	// Receive-window parameters (mirror the scheduler's Config); RX2
	// opens one second after RX1.
	RX1DelayS  float64
	RX2FreqMHz float64
	RX2Datr    string

	// Last-uplink context the windows are timed against.
	LastUplinkEndS float64
	UplinkFreqMHz  float64
	UplinkDatr     string

	// Applied assignment (set by a landed LinkADRReq).
	SF      lora.SF
	TPdBm   float64
	Channel int
	// AppliedAtS records when the last command landed; AppliedCount how
	// many landed in total.
	AppliedAtS   float64
	AppliedCount int

	fCntDown uint32
}

// windowToleranceS is the clock slack for matching a transmission onto a
// window open time.
const windowToleranceS = 0.02

// windowMatch reports which RX window (1 or 2) a transmission starting
// at txStartS on the given channel parameters falls into, or 0.
func (d *DeviceSim) windowMatch(txStartS, freqMHz float64, datr string) int {
	rx1 := d.LastUplinkEndS + d.RX1DelayS
	if math.Abs(txStartS-rx1) <= windowToleranceS && math.Abs(freqMHz-d.UplinkFreqMHz) < 1e-4 && datr == d.UplinkDatr {
		return 1
	}
	rx2 := d.LastUplinkEndS + (d.RX1DelayS + rx2AfterRX1S)
	if math.Abs(txStartS-rx2) <= windowToleranceS && math.Abs(freqMHz-d.RX2FreqMHz) < 1e-4 && datr == d.RX2Datr {
		return 2
	}
	return 0
}

// Receive offers a transmitted downlink to the device. It returns the
// matched window (0 when the radio was not listening — wrong time,
// frequency or data rate — in which case the frame is silently lost,
// exactly like the real air interface) and an error for frames that
// reached the radio but failed to verify or parse.
func (d *DeviceSim) Receive(tx *ingest.TXPK, txStartS float64) (int, error) {
	w := d.windowMatch(txStartS, tx.Freq, tx.Datr)
	if w == 0 {
		return 0, nil
	}
	phy, err := tx.Payload()
	if err != nil {
		return w, fmt.Errorf("downlink: device %08x: %w", d.DevAddr, err)
	}
	f, err := lorawan.DecodeDownlink(phy, d.Keys, d.fCntDown>>16)
	if err != nil {
		return w, fmt.Errorf("downlink: device %08x: %w", d.DevAddr, err)
	}
	if f.DevAddr != d.DevAddr {
		return 0, nil // addressed to someone else; radio drops it
	}
	if f.FCnt < d.fCntDown {
		return w, fmt.Errorf("downlink: device %08x: replayed FCntDown %d", d.DevAddr, f.FCnt)
	}
	d.fCntDown = f.FCnt + 1
	if f.FPort != 0 {
		return w, nil // application downlink: accepted, nothing to apply
	}
	cmd, err := lorawan.ParseLinkADRReq(f.Payload)
	if err != nil {
		return w, fmt.Errorf("downlink: device %08x: %w", d.DevAddr, err)
	}
	sf, err := lorawan.SFForDataRate(cmd.DataRate)
	if err != nil {
		return w, fmt.Errorf("downlink: device %08x: %w", d.DevAddr, err)
	}
	tp, ok := d.Plan.TxPowerForIndex(int(cmd.TXPower))
	if !ok {
		return w, fmt.Errorf("downlink: device %08x: bad TXPower index %d", d.DevAddr, cmd.TXPower)
	}
	if cmd.Channel >= d.Plan.NumChannels() {
		return w, fmt.Errorf("downlink: device %08x: channel %d outside plan", d.DevAddr, cmd.Channel)
	}
	d.SF = sf
	d.TPdBm = tp
	d.Channel = cmd.Channel
	d.AppliedAtS = txStartS
	d.AppliedCount++
	return w, nil
}
