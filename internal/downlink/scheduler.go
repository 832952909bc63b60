package downlink

import (
	"fmt"
	"sort"
	"sync"

	"eflora/internal/ingest"
	"eflora/internal/lora"
)

// Defaults for the Class-A receive windows (LoRaWAN 1.0 EU868 regional
// parameters): RX1 opens RX1DelayS after the uplink ends on the uplink's
// own frequency and data rate; RX2 opens one second later on a fixed
// channel at the most robust data rate. Every downlink goes out at
// DefaultPowerDBm, and a sent frame with no TX_ACK after
// DefaultAckTimeoutS is expired.
const (
	DefaultRX1DelayS   = 1.0
	DefaultRX2FreqMHz  = 869.525
	DefaultRX2Datr     = "SF12BW125"
	DefaultPowerDBm    = 14.0
	DefaultAckTimeoutS = 5.0
	// DefaultDutyCycle is the 10% ETSI limit of the 869.4–869.65 MHz
	// sub-band the RX2 channel sits in; uplink-band RX1 responses share
	// the same budget model per frequency.
	DefaultDutyCycle = 0.1
)

// rx2AfterRX1S is how long after RX1 the RX2 window opens, as LoRaWAN
// defines it.
const rx2AfterRX1S = 1.0

// Config parameterizes the scheduler. Zero values select the defaults
// above; RX2 opens one second after RX1.
type Config struct {
	RX1DelayS  float64
	RX2FreqMHz float64
	RX2Datr    string
	CodingRate lora.CodingRate
	// DutyCycle bounds the transmitter's share of airtime per downlink
	// frequency using the ETSI off-period rule (Toff = ToA/DC − ToA).
	DutyCycle float64
}

func (c *Config) setDefaults() {
	if c.RX1DelayS <= 0 {
		c.RX1DelayS = DefaultRX1DelayS
	}
	if c.RX2FreqMHz <= 0 {
		c.RX2FreqMHz = DefaultRX2FreqMHz
	}
	if c.RX2Datr == "" {
		c.RX2Datr = DefaultRX2Datr
	}
	if !c.CodingRate.Valid() {
		c.CodingRate = lora.CR45
	}
	if c.DutyCycle <= 0 || c.DutyCycle > 1 {
		c.DutyCycle = DefaultDutyCycle
	}
}

// Uplink is the reception context a downlink is timed against: the best
// gateway that heard the device's latest frame and the radio parameters
// of that uplink.
type Uplink struct {
	DevAddr uint32
	// Gateway is the serving gateway's index; EUI its forwarder identity.
	Gateway int
	EUI     [8]byte
	// Tmst is the gateway's internal microsecond counter at reception —
	// the time base PULL_RESP scheduling uses.
	Tmst uint64
	// FreqMHz and Datr are the uplink channel parameters RX1 mirrors.
	FreqMHz float64
	Datr    string
	// AtS is the server-relative reception time in seconds.
	AtS float64
}

// Frame is one scheduled PULL_RESP, ready to send to a gateway.
type Frame struct {
	Token   uint16
	Gateway int
	EUI     [8]byte
	DevAddr uint32
	// Window is 1 (RX1) or 2 (RX2).
	Window int
	TXPK   ingest.TXPK
	// Datagram is the encoded PULL_RESP ready for the gateway's socket.
	Datagram []byte
}

// Counters is a snapshot of the scheduler's accounting.
type Counters struct {
	// Queued counts commands accepted for delivery; Sent the PULL_RESP
	// frames emitted (retries included); Acked/Failed the terminal
	// outcomes; Retried the RX2 second attempts after a TX_ACK error;
	// Expired the sends with no TX_ACK within the timeout; NoRoute the
	// frames dropped for lack of a live gateway route; DutyBlocked the
	// window attempts skipped by the duty-cycle budget; Unsolicited the
	// TX_ACKs that resolved no pending frame of their gateway.
	Queued, Sent, Acked, Failed, Retried, Expired, NoRoute, DutyBlocked, Unsolicited int
}

// ackErrOther is the tally key of a TX_ACK error outside the protocol's
// TxErr* values.
const ackErrOther = "OTHER"

// AckErrorCount is one gateway's tally of a TX_ACK outcome.
type AckErrorCount struct {
	EUI   [8]byte
	Error string
	Count int
}

type pendingTx struct {
	devAddr uint32
	window  int
	phy     []byte
	up      Uplink
	sentAtS float64
}

// Scheduler turns queued MAC commands into Class-A downlink frames. A
// command enqueued for a device rides the device's most recent uplink if
// an RX window is still reachable, and otherwise waits for the next
// uplink. Safe for concurrent use.
type Scheduler struct {
	mu  sync.Mutex
	cfg Config
	// lastUp tracks each device's latest uplink; queued the encoded PHY
	// payload awaiting a window; pending the sent frames awaiting TX_ACK.
	lastUp  map[uint32]Uplink
	queued  map[uint32][]byte
	pending map[uint16]*pendingTx
	// nextFreeS is the earliest permitted transmit time per downlink
	// frequency (keyed in kHz), per the ETSI off-period rule.
	nextFreeS map[int]float64
	ackErrs   map[[8]byte]map[string]int
	nextToken uint16
	c         Counters
}

// NewScheduler creates a scheduler; zero Config fields take defaults.
func NewScheduler(cfg Config) *Scheduler {
	cfg.setDefaults()
	return &Scheduler{
		cfg:       cfg,
		lastUp:    make(map[uint32]Uplink),
		queued:    make(map[uint32][]byte),
		pending:   make(map[uint16]*pendingTx),
		nextFreeS: make(map[int]float64),
		ackErrs:   make(map[[8]byte]map[string]int),
	}
}

// Config returns the effective configuration after defaulting.
func (s *Scheduler) Config() Config { return s.cfg }

// ObserveUplink records a device's latest uplink. If a command is queued
// for the device, it is scheduled into this uplink's RX window and the
// frame to transmit is returned.
func (s *Scheduler) ObserveUplink(up Uplink, nowS float64) *Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastUp[up.DevAddr] = up
	return s.tryEmitLocked(up.DevAddr, nowS)
}

// Enqueue accepts an encoded downlink PHY payload for a device. If the
// device's last uplink still has a reachable RX window the frame to
// transmit is returned immediately; otherwise the command waits for the
// next uplink (ObserveUplink will emit it).
func (s *Scheduler) Enqueue(devAddr uint32, phy []byte, nowS float64) *Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queued[devAddr] = phy
	s.c.Queued++
	return s.tryEmitLocked(devAddr, nowS)
}

// QueuedCount reports commands still waiting for an RX window.
func (s *Scheduler) QueuedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queued)
}

// PendingCount reports sent frames awaiting their TX_ACK.
func (s *Scheduler) PendingCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// tryEmitLocked schedules the queued command of devAddr, if any, into
// the first reachable RX window of its last uplink.
func (s *Scheduler) tryEmitLocked(devAddr uint32, nowS float64) *Frame {
	phy, ok := s.queued[devAddr]
	if !ok {
		return nil
	}
	up, ok := s.lastUp[devAddr]
	if !ok {
		return nil
	}
	// RX1 mirrors the uplink's channel; RX2 uses the fixed parameters.
	// A window is usable while the server can still get the PULL_RESP to
	// the gateway ahead of it, i.e. now precedes the window open time.
	for _, w := range [2]struct {
		window  int
		delayS  float64
		freqMHz float64
		datr    string
	}{
		{1, s.cfg.RX1DelayS, up.FreqMHz, up.Datr},
		{2, s.cfg.RX1DelayS + rx2AfterRX1S, s.cfg.RX2FreqMHz, s.cfg.RX2Datr},
	} {
		openS := up.AtS + w.delayS
		if nowS >= openS {
			continue // window already open or past: too late to schedule
		}
		f, err := s.emitLocked(devAddr, up, phy, w.window, w.delayS, w.freqMHz, w.datr, openS)
		if err != nil {
			continue
		}
		delete(s.queued, devAddr)
		return f
	}
	return nil
}

// emitLocked builds and accounts one PULL_RESP for the given window, or
// reports why the window cannot be used (duty cycle, bad datr).
func (s *Scheduler) emitLocked(devAddr uint32, up Uplink, phy []byte, window int, delayS, freqMHz float64, datr string, sendAtS float64) (*Frame, error) {
	sf, bwHz, err := ingest.ParseDatr(datr)
	if err != nil {
		return nil, err
	}
	toaS := lora.TimeOnAir(len(phy), sf, bwHz, s.cfg.CodingRate)
	freqKHz := int(freqMHz*1000 + 0.5)
	if sendAtS < s.nextFreeS[freqKHz] {
		s.c.DutyBlocked++
		return nil, fmt.Errorf("downlink: duty cycle blocks %.3f MHz until %.3f s", freqMHz, s.nextFreeS[freqKHz])
	}
	tok := s.allocTokenLocked()
	tx := ingest.TXPK{
		Tmst: up.Tmst + uint64(delayS*1e6),
		Freq: freqMHz,
		RFCh: 0,
		Powe: DefaultPowerDBm,
		Modu: "LORA",
		Datr: datr,
		Codr: s.cfg.CodingRate.String(),
		IPol: true,
	}
	tx.SetPayload(phy)
	dgram, err := ingest.EncodePullResp(tok, &tx)
	if err != nil {
		return nil, err
	}
	s.nextFreeS[freqKHz] = sendAtS + toaS/s.cfg.DutyCycle
	s.pending[tok] = &pendingTx{devAddr: devAddr, window: window, phy: phy, up: up, sentAtS: sendAtS}
	s.c.Sent++
	return &Frame{
		Token:    tok,
		Gateway:  up.Gateway,
		EUI:      up.EUI,
		DevAddr:  devAddr,
		Window:   window,
		TXPK:     tx,
		Datagram: dgram,
	}, nil
}

func (s *Scheduler) allocTokenLocked() uint16 {
	for {
		s.nextToken++
		if s.nextToken == 0 {
			continue
		}
		if _, busy := s.pending[s.nextToken]; !busy {
			return s.nextToken
		}
	}
}

// OnTxAck resolves a sent frame from its gateway's TX_ACK. A success
// finalizes the delivery; an error on the RX1 attempt produces exactly
// one RX2 retry (the returned frame, when the duty budget allows it); an
// error on the RX2 attempt is terminal. Only a TX_ACK that resolves a
// pending frame and comes from the gateway the frame went to counts:
// every other one, an unknown or expired token or a foreign gateway,
// changes nothing but Counters.Unsolicited. Counted outcomes are tallied
// per gateway for metrics, an error outside the TxErr* values as OTHER,
// so no sender can grow the tallies with made-up EUIs or strings.
func (s *Scheduler) OnTxAck(eui [8]byte, token uint16, errStr string, nowS float64) *Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pending[token]
	if !ok || p.up.EUI != eui {
		s.c.Unsolicited++
		return nil
	}
	delete(s.pending, token)
	switch errStr {
	case "":
		errStr = ingest.TxErrNone
	case ingest.TxErrNone, ingest.TxErrTooLate, ingest.TxErrTooEarly, ingest.TxErrCollisionPacket,
		ingest.TxErrCollisionBeacon, ingest.TxErrTxFreq, ingest.TxErrTxPower, ingest.TxErrGPSUnlocked:
	default:
		errStr = ackErrOther
	}
	tally := s.ackErrs[eui]
	if tally == nil {
		tally = make(map[string]int)
		s.ackErrs[eui] = tally
	}
	tally[errStr]++
	if errStr == ingest.TxErrNone {
		s.c.Acked++
		return nil
	}
	if p.window != 1 {
		s.c.Failed++
		return nil
	}
	// One RX2 retry: same PHY payload, fixed RX2 channel of the same
	// uplink's timing.
	rx2 := s.cfg.RX1DelayS + rx2AfterRX1S
	f, err := s.emitLocked(p.devAddr, p.up, p.phy, 2, rx2,
		s.cfg.RX2FreqMHz, s.cfg.RX2Datr, p.up.AtS+rx2)
	if err != nil {
		s.c.Failed++
		return nil
	}
	s.c.Retried++
	return f
}

// Unroutable records that an emitted frame could not be sent because the
// gateway has no live downlink route.
func (s *Scheduler) Unroutable(token uint16) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pending[token]; !ok {
		return
	}
	delete(s.pending, token)
	s.c.NoRoute++
	s.c.Failed++
}

// Expire fails sent frames whose TX_ACK never arrived within the
// timeout and returns how many were dropped.
func (s *Scheduler) Expire(nowS float64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	toks := make([]int, 0, len(s.pending))
	for tok, p := range s.pending {
		if nowS-p.sentAtS > DefaultAckTimeoutS {
			toks = append(toks, int(tok))
		}
	}
	sort.Ints(toks)
	for _, tok := range toks {
		delete(s.pending, uint16(tok))
		s.c.Expired++
		s.c.Failed++
	}
	return len(toks)
}

// Counters returns a snapshot of the accounting counters.
func (s *Scheduler) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}

// AckErrors returns the per-gateway TX_ACK outcome tallies in a stable
// order (EUI, then error string).
func (s *Scheduler) AckErrors() []AckErrorCount {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []AckErrorCount
	for eui, tally := range s.ackErrs {
		for e, n := range tally {
			out = append(out, AckErrorCount{EUI: eui, Error: e, Count: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i].EUI {
			if out[i].EUI[k] != out[j].EUI[k] {
				return out[i].EUI[k] < out[j].EUI[k]
			}
		}
		return out[i].Error < out[j].Error
	})
	return out
}
