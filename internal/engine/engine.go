// Package engine implements the gateway receiver state machine shared by
// every consumer of the reception physics: both packet simulators
// (sim.Run and sim.RunConfirmed, which share one windowed loop), the
// live serving path (ingest.Frontend) and the replay daemon's
// half-duplex probe. One implementation of
//
//   - per-SF sensitivity and SNR decoding thresholds,
//   - same-SF same-channel collision with the optional capture effect,
//   - the SX1301 demodulator-capacity limit,
//   - half-duplex ACK blocking windows, and
//   - per-outcome accounting
//
// replaces the three hand-mirrored copies the repository used to carry,
// so a physics fix lands everywhere at once: every driver reaches it
// through the Sweep kernel.
//
// A Gateway takes transmissions in nondecreasing start order through
// Batch or Sweep: the simulators pass a whole window per call, the live
// frontend and the daemon's probe one arrival cut at its own start.
// FinishUpTo completes the receptions that ended by a given time
// without new arrivals, the frontend's idle-time flush. Drivers own
// everything above the receiver: schedules, retransmission policy,
// fading draws, de-duplication across gateways. The engine owns
// everything a single receiver decides: whether an arrival locks a
// demodulator, which overlapping receptions it corrupts and what verdict
// each reception earns when it completes.
//
// All methods are allocation-free after buffer warm-up (the arena slices
// retain their high-water capacity across Reset), so the engine can sit
// inside zero-alloc hot loops. A Gateway is not safe for concurrent use;
// give each goroutine its own instance.
package engine

import (
	"fmt"
	"math"

	"eflora/internal/lora"
)

// Outcome classifies what happened to one transmitted packet at a
// gateway, ordered by reporting precedence (higher wins when a packet
// meets different fates at different gateways). The numeric values are
// baked into golden digests and must not be renumbered.
type Outcome uint8

const (
	// OutcomeNoSignal: below sensitivity.
	OutcomeNoSignal Outcome = iota
	// OutcomeCapacity: heard, but no free demodulator (or, for confirmed
	// traffic, the gateway was deaf while transmitting an ACK).
	OutcomeCapacity
	// OutcomeFaded: locked, but the fading draw left the SNR below the
	// decoding threshold.
	OutcomeFaded
	// OutcomeCollided: destroyed by a same-SF same-channel overlap.
	OutcomeCollided
	// OutcomeDelivered: decoded.
	OutcomeDelivered
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeDelivered:
		return "delivered"
	case OutcomeCollided:
		return "collided"
	case OutcomeFaded:
		return "faded"
	case OutcomeCapacity:
		return "capacity"
	case OutcomeNoSignal:
		return "no-signal"
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// Thresholds caches the per-SF receiver cutoffs in linear units, indexed
// by sf - lora.SF7, so the per-reception hot path does no dB conversions.
type Thresholds struct {
	// SensitivityMW is the receiver sensitivity in milliwatts.
	SensitivityMW [6]float64
	// SNRLin is the decoding SNR threshold as a linear power ratio.
	SNRLin [6]float64
}

// NewThresholds derives the tables from the lora package's per-SF figures.
func NewThresholds() Thresholds {
	var t Thresholds
	for _, s := range lora.SFs() {
		t.SensitivityMW[s-lora.SF7] = lora.DBmToMilliwatts(lora.SensitivityDBm(s))
		t.SNRLin[s-lora.SF7] = lora.DBToLinear(lora.SNRThresholdDB(s))
	}
	return t
}

// Config parameterizes one gateway receiver.
type Config struct {
	// Capture enables the capture-effect variant of the collision rule: a
	// packet at least CaptureLin times stronger than every overlapping
	// same-SF same-channel packet survives. Off = the paper's rule (both
	// packets die regardless of power).
	Capture bool
	// CaptureLin is the linear power advantage needed to capture.
	CaptureLin float64
	// Capacity is the concurrent demodulator-lock limit (SX1301: 8).
	Capacity int
	// HalfDuplex honors ACK windows registered via AddAckWindow: uplinks
	// overlapping the gateway's own downlink are blocked.
	HalfDuplex bool
	// NoiseMW is the receiver noise floor in milliwatts.
	NoiseMW float64
	// Thresholds are the per-SF cutoffs (NewThresholds).
	Thresholds Thresholds
}

// Counters accumulates a gateway's per-outcome accounting across events.
type Counters struct {
	// CollisionLosses counts locked receptions destroyed by same-SF
	// same-channel overlap; CapacityDrops counts arrivals that found no
	// free demodulator; SensitivityMisses counts arrivals below
	// sensitivity; AckBlocked counts arrivals lost to the gateway's own
	// downlink (half-duplex mode only).
	CollisionLosses, CapacityDrops, SensitivityMisses, AckBlocked int
}

// Done is the verdict of one completed (or rejected) reception, keyed by
// the driver-supplied token.
type Done struct {
	// Tok is the transmission's token: its window's Tok0 plus its column.
	Tok int
	// Outcome is the reception's fate at this gateway.
	Outcome Outcome
	// RxMW is the received power, so the driver can derive the SNR of a
	// delivered packet without the engine paying for a log10 nobody reads.
	RxMW float64
}

// reception is one locked reception in progress. Entries live inline in
// the gateway's active list — no per-reception heap state — and later
// arrivals mark overlapping entries collided in place.
type reception struct {
	tok      int
	dev      int
	ch       int
	sf       lora.SF
	endS     float64
	rxMW     float64
	collided bool
}

// ackWin is a half-duplex window during which the gateway's downlink is
// in the air and it cannot lock onto uplinks.
type ackWin struct{ from, to float64 }

// Gateway is one receiver's state machine. The zero value is unusable;
// call Reset first. Buffers retain their high-water capacity across
// Reset, so a recycled Gateway runs allocation-free.
type Gateway struct {
	cfg     Config
	active  []reception
	ackWins []ackWin
	// batch holds the Batch kernel's reusable pass buffers (batch.go).
	batch batchState

	// Counters is the running per-outcome accounting since Reset.
	Counters Counters
}

// Reset prepares the gateway for a new event stream: configuration
// replaced, active receptions and ACK windows dropped, counters zeroed.
func (g *Gateway) Reset(cfg Config) {
	g.cfg = cfg
	g.active = g.active[:0]
	g.ackWins = g.ackWins[:0]
	g.Counters = Counters{}
}

// SNRdB converts a received power to the SNR this gateway decodes at.
func (g *Gateway) SNRdB(rxMW float64) float64 {
	return 10 * math.Log10(rxMW/g.cfg.NoiseMW)
}

// FinishUpTo completes every locked reception ending at or before cut,
// appending one Done per completion to dst (a caller-owned reused buffer)
// and returning the extended slice. Relative order of the receptions
// still in flight is preserved.
//
//eflora:hotpath
func (g *Gateway) FinishUpTo(cut float64, dst []Done) []Done {
	keep := g.active[:0]
	for _, rx := range g.active {
		if rx.endS > cut {
			keep = append(keep, rx)
			continue
		}
		dst = append(dst, g.verdict(rx.tok, rx.collided, rx.rxMW, rx.sf))
	}
	g.active = keep
	return dst
}

// verdict scores one completed reception and charges the counters. It
// takes the fields it reads, not a reception: Sweep scores the window's
// own completions straight from its columns, and building a reception
// for each made the sim-paper benchmark about 10 % slower.
func (g *Gateway) verdict(tok int, collided bool, rxMW float64, sf lora.SF) Done {
	o := OutcomeFaded
	switch {
	case collided:
		g.Counters.CollisionLosses++
		o = OutcomeCollided
	case g.decodable(rxMW, sf):
		o = OutcomeDelivered
	}
	return Done{Tok: tok, Outcome: o, RxMW: rxMW}
}

// decodable reports whether an uncollided reception at power rxMW clears
// its spreading factor's SNR threshold.
func (g *Gateway) decodable(rxMW float64, sf lora.SF) bool {
	return rxMW/g.cfg.NoiseMW >= g.cfg.Thresholds.SNRLin[sf-lora.SF7]
}

// AddAckWindow registers a half-duplex window [from, to) during which
// this gateway's downlink is in the air. Arrivals overlapping an open
// window are blocked when Config.HalfDuplex is set.
func (g *Gateway) AddAckWindow(from, to float64) {
	g.ackWins = append(g.ackWins, ackWin{from: from, to: to})
}
