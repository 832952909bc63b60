// Package sim is a discrete-event packet-level simulator of multi-gateway
// LoRaWAN uplink traffic — the repository's substitute for the NS-3 LoRa
// module the paper evaluates on. It models:
//
//   - unslotted-ALOHA periodic senders with a uniformly random phase,
//   - per-SF time-on-air and per-device transmission power,
//   - independent Rayleigh fading per transmission and gateway,
//   - receiver sensitivity and SNR thresholds per spreading factor,
//   - the paper's collision rule (two overlapping packets with the same SF
//     and channel at a gateway are both lost, regardless of overlap size),
//     with an optional capture-effect variant,
//   - the SX1301 demodulator limit (at most GatewayCapacity concurrent
//     locks per gateway),
//   - network-server de-duplication (a packet is delivered if any gateway
//     decodes it), and
//   - for confirmed traffic (RunConfirmed), retransmission after an ACK
//     timeout and random backoff, and optionally the half-duplex cost of
//     the acknowledgements.
//
// Run and RunConfirmed share one loop, which streams the transmission
// schedule through time windows: a scan of the devices emits each
// window's transmissions, retransmissions included, a linear-time bucket
// pass puts them in (start, device, attempt) order, and the gateways
// replay the window in ascending order, each against its own receiver
// state, while in-flight receptions carry over to the next one. Resident
// schedule memory is O(devices + window) whatever the run length. A run
// is single-threaded — the figures fan out over whole runs instead
// (package exp) — and draws all randomness in schedule order or from
// per-device streams and merges verdicts in gateway order, so it
// produces bit-identical results at any window length.
//
// The reception physics itself — lock, overlap/capture, capacity,
// half-duplex blocking, the SNR decision — lives in the shared
// engine.Gateway state machine, which the loop drives through its Sweep
// kernel; this package owns the schedule, the retransmission policy and
// the cross-gateway merge.
package sim

import (
	"fmt"
	"math"

	"eflora/internal/engine"
	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/slab"
)

// Config controls a simulation run.
type Config struct {
	// PacketsPerDevice is how many reporting periods to simulate
	// (default 100).
	PacketsPerDevice int
	// Seed drives all randomness (phases and fading).
	Seed uint64
	// Capture enables the capture-effect variant of the collision rule: a
	// packet at least the capture threshold stronger than every
	// overlapping same-SF same-channel packet survives. Off by default
	// (the paper's rule).
	Capture bool
	// Trace records a PacketRecord per transmission in Result.Trace
	// (memory proportional to the packet count).
	Trace bool
	// MeasureSNR records each device's best delivered-packet SNR in
	// Result.MaxSNRdB — the uplink quality measurement a network-side ADR
	// controller consumes.
	MeasureSNR bool
	// CaptureThresholdDB is the power advantage needed to capture. nil
	// means the 6 dB default; point it at 0 for a pure strongest-wins
	// rule (any power advantage captures).
	CaptureThresholdDB *float64
	// Scratch, when non-nil, supplies the reusable buffer arena for this
	// run, making repeated runs (the trials behind every figure)
	// allocation-free. See Scratch for the aliasing contract. nil keeps
	// the old behaviour: every run allocates fresh buffers, and the
	// returned Result is independently owned.
	Scratch *Scratch
}

// MaxTransmissions caps the expected transmission count of the
// confirmed-traffic energy approximation (LoRaWAN retries a confirmed
// uplink at most 8 times).
const MaxTransmissions = 8

// DefaultCaptureThresholdDB is the capture threshold used when
// Config.CaptureThresholdDB is nil (the SX127x co-channel rejection
// figure the paper's capture ablation uses).
const DefaultCaptureThresholdDB = 6.0

func (c Config) withDefaults() Config {
	if c.PacketsPerDevice <= 0 {
		c.PacketsPerDevice = 100
	}
	return c
}

// captureLin is the capture threshold as a linear power ratio: the value
// Config.CaptureThresholdDB points at, or DefaultCaptureThresholdDB when
// nil.
func (c Config) captureLin() float64 {
	if c.CaptureThresholdDB == nil {
		return lora.DBToLinear(DefaultCaptureThresholdDB)
	}
	return lora.DBToLinear(*c.CaptureThresholdDB)
}

// Result aggregates a simulation run.
type Result struct {
	// Attempts and Delivered count packets per device.
	Attempts, Delivered []int
	// PRR is Delivered/Attempts per device.
	PRR []float64
	// TxEnergyJ is the per-device energy spent on transmission cycles
	// (radio overheads + air time), the E_s accounting of the model.
	TxEnergyJ []float64
	// TotalEnergyJ additionally charges sleep current over the whole
	// simulated time (used for lifetime).
	TotalEnergyJ []float64
	// EE is delivered application bits per joule of transmission energy,
	// the simulator's counterpart of the model's Eq. 2.
	EE []float64
	// AvgPowerW is TotalEnergyJ / SimTimeS, the lifetime driver for
	// unconfirmed (fire-and-forget) traffic.
	AvgPowerW []float64
	// RetxAvgPowerW is the confirmed-traffic approximation the paper's
	// lifetime evaluation uses: transmission energy is scaled by the
	// expected transmission count 1/PRR (capped at the LoRaWAN limit of
	// MaxTransmissions attempts), so unreliable devices drain faster.
	RetxAvgPowerW []float64
	// SimTimeS is the simulated duration.
	SimTimeS float64
	// CollisionLosses counts gateway-level receptions destroyed by
	// same-SF same-channel overlap; CapacityDrops counts receptions that
	// found no free demodulator; SensitivityMisses counts transmissions
	// that arrived below sensitivity at a gateway.
	CollisionLosses, CapacityDrops, SensitivityMisses int
	// Trace holds one record per transmission when Config.Trace is set.
	Trace []PacketRecord
	// MaxSNRdB is each device's best delivered-packet SNR when
	// Config.MeasureSNR is set (-Inf for devices that delivered nothing).
	MaxSNRdB []float64
}

// engineConfig assembles the shared receiver state machine's parameters
// from this package's knobs. halfDuplex is on only for confirmed traffic
// with ConfirmedConfig.HalfDuplexAcks.
func engineConfig(p model.Params, captureLin, noiseMW float64, capture, halfDuplex bool) engine.Config {
	return engine.Config{
		Capture:    capture,
		CaptureLin: captureLin,
		Capacity:   p.GatewayCapacity,
		HalfDuplex: halfDuplex,
		NoiseMW:    noiseMW,
		Thresholds: engine.NewThresholds(),
	}
}

// maxPacketsPerDevice bounds one device's transmission count, so a
// reporting-interval mix whose horizon is finite but absurd (a device at
// 1 s next to one at 1e300 s) is refused instead of overflowing int.
const maxPacketsPerDevice = math.MaxInt32

// deviceSchedule fills the per-device schedule-building buffers (toa,
// tpMW, interval, slack, packets) and returns the simulated horizon. The
// horizon is PacketsPerDevice periods of the slowest device, so every
// device gets at least PacketsPerDevice packets and devices with shorter
// reporting intervals (duty-cycle traffic) correctly send proportionally
// more. It fails when the horizon or a device's packet count is not a
// finite, representable number.
func deviceSchedule(sc *Scratch, net *model.Network, p model.Params, a model.Allocation, packetsPerDevice int) (simEnd float64, err error) {
	n := net.N()
	toa := slab.Grow(sc.toa, n)
	tpMW := slab.Grow(sc.tpMW, n)
	interval := slab.Grow(sc.interval, n)
	slack := slab.Grow(sc.slack, n)
	packets := slab.Grow(sc.packets, n)
	sc.toa, sc.tpMW, sc.interval, sc.slack, sc.packets = toa, tpMW, interval, slack, packets
	for i := 0; i < n; i++ {
		toa[i] = p.TimeOnAir(a.SF[i])
		tpMW[i] = lora.DBmToMilliwatts(a.TPdBm[i])
		interval[i] = p.IntervalFor(net, i, a.SF[i])
		// Jitter within [0, interval-ToA] so a device never overlaps its
		// own next packet (a real device queues, it does not double-send).
		slack[i] = max(interval[i]-toa[i], 0)
		if t := interval[i] * float64(packetsPerDevice); t > simEnd {
			simEnd = t
		}
	}
	if math.IsInf(simEnd, 1) {
		return 0, fmt.Errorf("sim: %d packets per device at the longest reporting interval overflow the simulated time", packetsPerDevice)
	}
	for i := 0; i < n; i++ {
		q := simEnd / interval[i]
		if !(q <= maxPacketsPerDevice) {
			return 0, fmt.Errorf("sim: device %d would send %g packets over the %g s horizon", i, q, simEnd)
		}
		packets[i] = max(int(q), packetsPerDevice)
	}
	return simEnd, nil
}

// initResult readies the scratch-backed result for a run over the given
// schedule: per-device slices sized and cleared, counters zeroed,
// optional fields nil'd out (the loop re-points them when their option
// is on). Every device starts with its first transmissions counted as
// attempts and generated packets.
func initResult(sc *Scratch, n int, simEnd float64, measureSNR bool) *ConfirmedResult {
	res := &sc.res
	res.Attempts = slab.Grow(res.Attempts, n)
	res.Delivered = slab.GrowZero(res.Delivered, n)
	res.PRR = slab.Grow(res.PRR, n)
	res.TxEnergyJ = slab.Grow(res.TxEnergyJ, n)
	res.TotalEnergyJ = slab.Grow(res.TotalEnergyJ, n)
	res.EE = slab.Grow(res.EE, n)
	res.AvgPowerW = slab.Grow(res.AvgPowerW, n)
	res.RetxAvgPowerW = slab.Grow(res.RetxAvgPowerW, n)
	res.SimTimeS = simEnd
	res.CollisionLosses, res.CapacityDrops, res.SensitivityMisses = 0, 0, 0
	res.Trace = nil
	res.MaxSNRdB = nil
	copy(res.Attempts, sc.packets)
	res.Generated = sc.packets
	res.Retransmissions, res.Abandoned, res.AckBlocked = 0, 0, 0
	if measureSNR {
		sc.maxSNR = slab.Grow(sc.maxSNR, n)
		res.MaxSNRdB = sc.maxSNR
		for i := range res.MaxSNRdB {
			res.MaxSNRdB[i] = math.Inf(-1)
		}
	}
	return res
}

// finishResult derives the per-device energy and rate statistics from the
// delivery counts.
func finishResult(res *Result, p model.Params, a model.Allocation, toa []float64, simEnd float64) {
	lbits := p.AppPayloadBits()
	for i := range res.Attempts {
		res.PRR[i] = float64(res.Delivered[i]) / float64(res.Attempts[i])
		eTx, sleep := res.chargeEnergy(i, p, lbits, a.TPdBm[i], toa[i], simEnd)
		etx := float64(MaxTransmissions)
		if res.PRR[i] > 1/float64(MaxTransmissions) {
			etx = 1 / res.PRR[i]
		}
		res.RetxAvgPowerW[i] = (eTx*etx + p.Profile.SleepPowerDraw()*sleep) / simEnd
	}
}

// chargeEnergy is the one per-device energy accounting of both
// simulators: it fills device i's TxEnergyJ, TotalEnergyJ, EE and
// AvgPowerW from its transmission attempts and deliveries over a run of
// simEnd seconds, and returns the transmission energy and sleep time it
// charged.
func (res *Result) chargeEnergy(i int, p model.Params, lbits, tpDBm, toa, simEnd float64) (eTx, sleep float64) {
	eTx = p.Profile.TransmissionEnergy(tpDBm, toa) * float64(res.Attempts[i])
	res.TxEnergyJ[i] = eTx
	active := (p.Profile.OverheadDuration() + toa) * float64(res.Attempts[i])
	sleep = simEnd - active
	if sleep < 0 {
		sleep = 0
	}
	res.TotalEnergyJ[i] = eTx + p.Profile.SleepPowerDraw()*sleep
	res.EE[i] = 0
	if eTx > 0 {
		res.EE[i] = lbits * float64(res.Delivered[i]) / eTx
	}
	res.AvgPowerW[i] = res.TotalEnergyJ[i] / simEnd
	return eTx, sleep
}

// validate checks the inputs both simulators require.
func validate(net *model.Network, p model.Params, a model.Allocation) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if err := net.Validate(p); err != nil {
		return err
	}
	if n := net.N(); n > maxDevices {
		return fmt.Errorf("sim: %d devices exceed the simulator's limit of %d", n, maxDevices)
	}
	return a.Validate(net.N(), p)
}

// Run simulates the network under the given allocation and returns
// per-device statistics.
func Run(net *model.Network, p model.Params, a model.Allocation, cfg Config) (*Result, error) {
	if err := validate(net, p, a); err != nil {
		return nil, err
	}
	return run(net, p, a, cfg.withDefaults(), 0)
}

// Summary renders headline statistics for logs.
func (r *Result) Summary() string {
	attempts := total(r.Attempts)
	return fmt.Sprintf("attempts=%d %s", attempts, r.deliverySummary(attempts))
}

// deliverySummary renders the deliveries, their ratio to sent and the
// loss counters.
func (r *Result) deliverySummary(sent int) string {
	delivered := total(r.Delivered)
	prr := 0.0
	if sent > 0 {
		prr = float64(delivered) / float64(sent)
	}
	return fmt.Sprintf("delivered=%d prr=%.3f collisions=%d capacity_drops=%d sensitivity_misses=%d",
		delivered, prr, r.CollisionLosses, r.CapacityDrops, r.SensitivityMisses)
}

// total sums per-device counts.
func total(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
