package sim

import (
	"fmt"

	"eflora/internal/model"
	"eflora/internal/rng"
	"eflora/internal/slab"
)

// ConfirmedConfig extends Config for confirmed (acknowledged) uplink
// traffic: a device that receives no acknowledgement retransmits after
// DefaultAckTimeoutS plus a uniform random backoff of up to
// DefaultBackoffS, up to MaxTransmissions transmissions per packet —
// LoRaWAN confirmed-uplink behaviour. Retransmissions add load, which
// adds collisions, which adds retransmissions: the feedback loop the
// unconfirmed energy approximation (Result.RetxAvgPowerW) linearizes away.
type ConfirmedConfig struct {
	Config
	// HalfDuplexAcks models the gateway's transmit cost: the gateway that
	// acknowledges a packet cannot receive while its downlink is in the
	// air (LoRa gateways are half-duplex), so uplinks arriving during the
	// ACK are lost at that gateway. The ACK goes out in RX1 (1 s after
	// the uplink) at the uplink's spreading factor, through the lowest
	// gateway that decoded it.
	HalfDuplexAcks bool
}

// DefaultAckTimeoutS is the delay before a retransmission (the class-A
// RX-window span); DefaultBackoffS bounds the uniform random backoff
// added to it.
const (
	DefaultAckTimeoutS = 2.0
	DefaultBackoffS    = 4.0
)

// ConfirmedResult extends Result with confirmed-traffic accounting.
type ConfirmedResult struct {
	Result
	// Generated counts packets handed to the MAC per device; Attempts in
	// the embedded Result counts transmissions (>= Generated).
	Generated []int
	// Retransmissions counts transmissions beyond each packet's first.
	Retransmissions int
	// Abandoned counts packets dropped after MaxTransmissions attempts.
	Abandoned int
	// AckBlocked counts uplink receptions lost because the gateway was
	// transmitting an acknowledgement (HalfDuplexAcks only).
	AckBlocked int
}

// Summary renders headline statistics for logs. Attempts counts
// transmissions here, so the delivery ratio divides by the generated
// packets, as PRR does.
func (r *ConfirmedResult) Summary() string {
	packets := total(r.Generated)
	return fmt.Sprintf("packets=%d transmissions=%d %s", packets, total(r.Attempts), r.deliverySummary(packets))
}

// RunConfirmed simulates confirmed uplink traffic with retransmissions.
// It runs Run's windowed loop with windows of DefaultAckTimeoutS:
// a transmission's verdict is final at the first window cut at or after
// its end, and a failed transmission's retry, which starts at least
// DefaultAckTimeoutS after that end, waits in a queue of retransmissions
// until the window it starts in. There it joins the window's entries
// after the device scan's first transmissions, and the window's
// ordering pass puts it in (start, device, attempt) order among them.
// Jitter and fading are drawn exactly as Run draws them,
// retransmissions' fading included, and each device draws its backoffs
// from its own stream seeded from Config.Seed and its index. So with one
// attempt per packet and HalfDuplexAcks off the run equals Run's on
// every Result field except RetxAvgPowerW, and the schedule streams in
// O(devices + window) memory.
//
// Config.Trace records one PacketRecord per transmission attempt in
// schedule order (by start, device and attempt), as Run appends them,
// and Config.MeasureSNR records each device's best delivered SNR, as in
// Run. With a Config.Scratch the returned result aliases the scratch's
// buffers under the same contract as Run.
func RunConfirmed(net *model.Network, p model.Params, a model.Allocation, cfg ConfirmedConfig) (*ConfirmedResult, error) {
	if err := validate(net, p, a); err != nil {
		return nil, err
	}
	cfg.Config = cfg.Config.withDefaults()
	return runConfirmed(net, p, a, cfg, 0, MaxTransmissions)
}

// runConfirmed is RunConfirmed after validation and defaults, with the
// window length and the per-packet attempt limit (1 to MaxTransmissions)
// as parameters (see simulate).
func runConfirmed(net *model.Network, p model.Params, a model.Allocation, cfg ConfirmedConfig, window float64, maxAttempts int) (*ConfirmedResult, error) {
	sc := cfg.Scratch
	if sc == nil {
		sc = new(Scratch)
	}
	res, err := sc.simulate(net, p, a, cfg.Config, window, maxAttempts, cfg.HalfDuplexAcks)
	if err != nil {
		return nil, err
	}
	lbits := p.AppPayloadBits()
	for i := range res.Attempts {
		// The loop ends once every packet is delivered or out of attempts.
		res.Abandoned += res.Generated[i] - res.Delivered[i]
		res.PRR[i] = float64(res.Delivered[i]) / float64(res.Generated[i])
		res.chargeEnergy(i, p, lbits, a.TPdBm[i], sc.toa[i], res.SimTimeS)
		// Under confirmed traffic the energy already contains the
		// retransmissions, so both power views coincide.
		res.RetxAvgPowerW[i] = res.AvgPowerW[i]
	}
	return res, nil
}

// retxTx is one queued retransmission: device dev's attempt-th
// transmission of a packet, starting at start.
type retxTx struct {
	start   float64
	dev     int32
	attempt uint8
}

// startRetries readies a retransmitting run's backoff streams, one per
// device, seeded from the run seed and the device index, so no backoff
// comes from the master RNG and none depends on another device's.
func startRetries(sc *Scratch, seed uint64) {
	sc.backoff = slab.Grow(sc.backoff, len(sc.packets))
	for i := range sc.backoff {
		sc.backoff[i] = *rng.New(backoffSeed(seed, i))
	}
}

// backoffSeed derives device i's backoff-stream seed from the run seed
// with the splitmix64 finalizer, a bijection, so the devices of one run
// never share a seed.
func backoffSeed(seed uint64, i int) uint64 {
	z := seed ^ (uint64(i)+1)*0xd1b54a32d192ed03
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
