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
//     locks per gateway), and
//   - network-server de-duplication (a packet is delivered if any gateway
//     decodes it).
//
// Gateways replay the shared transmission schedule independently: all
// randomness (phases and fading) is drawn up front, each gateway writes
// into its own buffers, and the buffers are merged in gateway order. Run
// therefore produces bit-identical results at any Parallelism setting.
//
// The reception physics itself — lock, overlap/capture, capacity,
// half-duplex blocking, the SNR decision — lives in the shared
// engine.Gateway state machine; this package drives it with schedules
// (batch or streaming) and owns the cross-gateway merge. Setting
// Config.StreamWindowS switches Run to time-windowed streaming
// generation with O(devices + active window) resident schedule memory
// and bit-identical output.
package sim

import (
	"fmt"
	"math"
	"sort"

	"eflora/internal/engine"
	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/par"
	"eflora/internal/rng"
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
	// Parallelism bounds the gateway-replay goroutines (0 = GOMAXPROCS).
	// Results are bit-identical at any value; it only trades wall-clock
	// time for cores.
	Parallelism int
	// StreamWindowS, when positive, switches Run to time-windowed
	// streaming generation: devices emit transmissions window by window
	// and in-flight receptions carry over across boundaries, so resident
	// schedule memory is O(devices + active window) instead of O(total
	// transmissions). Results are bit-identical to batch mode at any
	// window size. 0 keeps the batch (whole-schedule) path. A Trace is
	// still O(total transmissions) — it is the output, not the schedule.
	StreamWindowS float64
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
	if c.CaptureThresholdDB == nil {
		th := DefaultCaptureThresholdDB
		c.CaptureThresholdDB = &th
	}
	return c
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

// The transmission schedule lives in struct-of-arrays form
// (engine.Window): parallel columns instead of an array of structs, so
// the batch kernel's passes stream through contiguous memory. The
// columns are built unsorted in device order (preserving the jitter
// RNG stream), argsorted by (start, dev) via a permutation, and
// gathered into the sorted window.

// engineConfig assembles the shared receiver state machine's parameters
// from this package's knobs. halfDuplex is on only for confirmed traffic.
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

// deviceSchedule fills the per-device schedule-building buffers (toa,
// tpMW, interval, packets) and returns the simulated horizon and total
// transmission count. The horizon is PacketsPerDevice periods of the
// slowest device, so every device gets at least PacketsPerDevice packets
// and devices with shorter reporting intervals (duty-cycle traffic)
// correctly send proportionally more.
func deviceSchedule(sc *Scratch, net *model.Network, p model.Params, a model.Allocation, packetsPerDevice int) (simEnd float64, total int) {
	n := net.N()
	toa := slab.Grow(sc.toa, n)
	tpMW := slab.Grow(sc.tpMW, n)
	interval := slab.Grow(sc.interval, n)
	packets := slab.Grow(sc.packets, n)
	sc.toa, sc.tpMW, sc.interval, sc.packets = toa, tpMW, interval, packets
	for i := 0; i < n; i++ {
		toa[i] = p.TimeOnAir(a.SF[i])
		tpMW[i] = lora.DBmToMilliwatts(a.TPdBm[i])
		interval[i] = p.IntervalFor(net, i, a.SF[i])
		if t := interval[i] * float64(packetsPerDevice); t > simEnd {
			simEnd = t
		}
	}
	for i := 0; i < n; i++ {
		packets[i] = int(simEnd / interval[i])
		if packets[i] < packetsPerDevice {
			packets[i] = packetsPerDevice
		}
		total += packets[i]
	}
	return simEnd, total
}

// initResult readies the scratch-backed Result for a run over the given
// schedule: per-device slices sized and cleared, counters zeroed,
// optional fields nil'd out (Run and runStreaming re-point them when
// their option is on).
func initResult(sc *Scratch, n int, simEnd float64, measureSNR bool) *Result {
	res := &sc.res
	res.Attempts = slab.Grow(res.Attempts, n)
	res.Delivered = slab.GrowZero(res.Delivered, n)
	res.PRR = slab.Grow(res.PRR, n)
	res.TxEnergyJ = slab.Grow(res.TxEnergyJ, n)
	res.TotalEnergyJ = slab.Grow(res.TotalEnergyJ, n)
	res.EE = slab.GrowZero(res.EE, n)
	res.AvgPowerW = slab.Grow(res.AvgPowerW, n)
	res.RetxAvgPowerW = slab.Grow(res.RetxAvgPowerW, n)
	res.SimTimeS = simEnd
	res.CollisionLosses, res.CapacityDrops, res.SensitivityMisses = 0, 0, 0
	res.Trace = nil
	res.MaxSNRdB = nil
	for i := 0; i < n; i++ {
		res.Attempts[i] = sc.packets[i]
	}
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
// delivery counts — identical for the batch and streaming paths.
func finishResult(res *Result, p model.Params, a model.Allocation, toa []float64, simEnd float64) {
	lbits := p.AppPayloadBits()
	for i := range res.Attempts {
		res.PRR[i] = float64(res.Delivered[i]) / float64(res.Attempts[i])
		eTx := p.Profile.TransmissionEnergy(a.TPdBm[i], toa[i]) * float64(res.Attempts[i])
		res.TxEnergyJ[i] = eTx
		active := (p.Profile.OverheadDuration() + toa[i]) * float64(res.Attempts[i])
		sleep := simEnd - active
		if sleep < 0 {
			sleep = 0
		}
		res.TotalEnergyJ[i] = eTx + p.Profile.SleepPowerDraw()*sleep
		if eTx > 0 {
			res.EE[i] = lbits * float64(res.Delivered[i]) / eTx
		}
		res.AvgPowerW[i] = res.TotalEnergyJ[i] / simEnd
		etx := float64(MaxTransmissions)
		if res.PRR[i] > 1/float64(MaxTransmissions) {
			etx = 1 / res.PRR[i]
		}
		res.RetxAvgPowerW[i] = (eTx*etx + p.Profile.SleepPowerDraw()*sleep) / simEnd
	}
}

// Run simulates the network under the given allocation and returns
// per-device statistics.
//
//eflora:hotpath
func Run(net *model.Network, p model.Params, a model.Allocation, cfg Config) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := net.Validate(p); err != nil {
		return nil, err
	}
	if err := a.Validate(net.N(), p); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.StreamWindowS > 0 {
		return runStreaming(net, p, a, cfg)
	}
	n, g := net.N(), net.G()
	r := rng.New(cfg.Seed)
	sc := cfg.Scratch
	if sc == nil {
		sc = new(Scratch)
	}

	gains := model.Gains(net, p)
	noiseMW := lora.DBmToMilliwatts(p.NoiseDBm)
	captureLin := lora.DBToLinear(*cfg.CaptureThresholdDB)
	engCfg := engineConfig(p, captureLin, noiseMW, cfg.Capture, false)

	// Build the transmission schedule: periodic with random phase.
	simEnd, total := deviceSchedule(sc, net, p, a, cfg.PacketsPerDevice)
	toa, tpMW, interval, packets := sc.toa, sc.tpMW, sc.interval, sc.packets
	// Each device sends one packet per reporting period at a uniformly
	// random instant within the period (the paper's unslotted ALOHA with
	// per-cycle Poisson send times) — a fixed per-device phase would lock
	// pairs of same-group devices into colliding either every cycle or
	// never.
	ustart := slab.Grow(sc.ustart, total)
	udev := slab.Grow(sc.udev, total)
	perm := slab.Grow(sc.perm, total)
	sc.ustart, sc.udev, sc.perm = ustart, udev, perm
	ti := 0
	for i := 0; i < n; i++ {
		// Jitter within [0, interval-ToA] so a device never overlaps its
		// own next packet (a real device queues, it does not double-send).
		slack := interval[i] - toa[i]
		if slack < 0 {
			slack = 0
		}
		for m := 0; m < packets[i]; m++ {
			ustart[ti] = float64(m)*interval[i] + r.Float64()*slack
			udev[ti] = int32(i)
			perm[ti] = int32(ti)
			ti++
		}
	}
	// Argsort by (start, dev) — a unique total order (a device's starts
	// strictly increase), so any sort algorithm yields the same
	// permutation — then gather the sorted columns.
	sort.Slice(perm, func(x, y int) bool {
		px, py := perm[x], perm[y]
		if ustart[px] != ustart[py] {
			return ustart[px] < ustart[py]
		}
		return udev[px] < udev[py]
	})
	w := &sc.win
	w.Reset(0)
	w.Grow(total)
	for _, pi := range perm {
		d := udev[pi]
		start := ustart[pi]
		w.Append(int(d), a.SF[d], a.Channel[d], start, start+toa[d], tpMW[d])
	}

	// Pre-draw Rayleigh fading per transmission and gateway so gateway
	// processing order cannot change the random stream. The matrix is
	// flattened row-major (transmission t, gateway k at t*g+k), filled
	// by one bulk draw over the whole run.
	fading := slab.Grow(sc.fading, total*g)
	sc.fading = fading
	r.RayleighPowerGains(fading)

	res := initResult(sc, n, simEnd, cfg.MeasureSNR)

	// Replay every gateway against the shared schedule. Each gateway owns
	// its buffers, so the replays are independent and run concurrently;
	// the merge below folds them back in ascending gateway order, which
	// makes the result identical to a sequential k = 0..g-1 loop.
	replays := slab.Grow(sc.replays, g)
	sc.replays = replays
	par.For(cfg.Parallelism, g, func(k int) {
		simulateGateway(k, w, fading, g, gains, engCfg, cfg, &replays[k])
	})

	delivered := slab.GrowZero(sc.delivered, total)
	sc.delivered = delivered
	var outcome []Outcome
	var outGw []int
	if cfg.Trace {
		outcome = slab.GrowZero(sc.outcome, total)
		outGw = slab.Grow(sc.outGw, total)
		sc.outcome, sc.outGw = outcome, outGw
		for i := range outGw {
			outGw[i] = -1
		}
	}
	for k := 0; k < g; k++ {
		rp := &replays[k]
		res.CollisionLosses += rp.collisionLosses
		res.CapacityDrops += rp.capacityDrops
		res.SensitivityMisses += rp.sensitivityMisses
		for t := range rp.delivered {
			if rp.delivered[t] {
				delivered[t] = true
			}
		}
		if cfg.Trace {
			// Keep the most informative outcome across gateways; the
			// decoding gateway of a delivered packet is the lowest one.
			for t := range rp.outcome {
				if rp.outcome[t] > outcome[t] {
					outcome[t] = rp.outcome[t]
					if rp.outcome[t] == OutcomeDelivered {
						outGw[t] = k
					}
				}
			}
		}
		if cfg.MeasureSNR {
			for t := range rp.snrDB {
				if rp.delivered[t] && rp.snrDB[t] > res.MaxSNRdB[w.Dev[t]] {
					res.MaxSNRdB[w.Dev[t]] = rp.snrDB[t]
				}
			}
		}
	}
	if cfg.Trace {
		sc.trace = slab.Grow(sc.trace, total)
		res.Trace = sc.trace
		for t := 0; t < total; t++ {
			res.Trace[t] = PacketRecord{
				Device:  int(w.Dev[t]),
				StartS:  w.StartS[t],
				Outcome: outcome[t],
				Gateway: outGw[t],
			}
		}
	}

	for t, ok := range delivered {
		if ok {
			res.Delivered[w.Dev[t]]++
		}
	}
	finishResult(res, p, a, toa, simEnd)
	return res, nil
}

// gwReplay is the outcome of replaying the transmission schedule at one
// gateway: the gateway's receiver state machine plus private buffers
// that Run merges in gateway order, reused across runs when a Scratch is
// supplied. outcome is populated only under Config.Trace and snrDB only
// under Config.MeasureSNR. The streaming path reuses eng and done (its
// per-window event list) and leaves the schedule-length arrays nil.
type gwReplay struct {
	eng  engine.Gateway
	done []engine.Done
	// rxBuf is the per-gateway received-power column handed to the batch
	// kernel, parallel to the window being replayed.
	rxBuf     []float64
	delivered []bool
	// outcome and snrDB are nil when their option is off; outcomeBuf and
	// snrBuf retain the backing arrays across runs either way.
	outcome                                           []Outcome
	snrDB                                             []float64
	outcomeBuf                                        []Outcome
	snrBuf                                            []float64
	collisionLosses, capacityDrops, sensitivityMisses int
}

// apply folds a batch of completion verdicts into the replay's
// per-transmission buffers.
//
//eflora:hotpath
func (rp *gwReplay) apply(done []engine.Done) {
	for _, d := range done {
		if d.Outcome == OutcomeDelivered {
			rp.delivered[d.Tok] = true
			if rp.snrDB != nil {
				rp.snrDB[d.Tok] = rp.eng.SNRdB(d.RxMW)
			}
		}
		if rp.outcome != nil {
			rp.outcome[d.Tok] = d.Outcome
		}
	}
}

// simulateGateway replays the transmission schedule at gateway k into
// rp, reusing rp's buffers from previous runs. It reads only shared
// immutable state (schedule columns, flattened fading, gains), so
// concurrent calls for different gateways are safe. The reception
// physics lives in rp.eng (engine.Gateway); this driver builds the
// gateway's received-power column and hands the whole window to the
// batch kernel in one call.
//
//eflora:hotpath
func simulateGateway(
	k int, w *engine.Window, fading []float64, g int, gains [][]float64,
	engCfg engine.Config, cfg Config, rp *gwReplay,
) {
	total := w.Len()
	rp.delivered = slab.GrowZero(rp.delivered, total)
	rp.outcome, rp.snrDB = nil, nil
	if cfg.Trace {
		rp.outcomeBuf = slab.GrowZero(rp.outcomeBuf, total)
		rp.outcome = rp.outcomeBuf
	}
	if cfg.MeasureSNR {
		rp.snrBuf = slab.Grow(rp.snrBuf, total)
		rp.snrDB = rp.snrBuf
	}
	rp.eng.Reset(engCfg)
	rx := slab.Grow(rp.rxBuf, total)
	rp.rxBuf = rx
	for t := 0; t < total; t++ {
		rx[t] = w.TpMW[t] * gains[w.Dev[t]][k] * fading[t*g+k]
	}
	// Batch emits exactly one Done per window entry here (cut = +Inf, no
	// carry-over after Reset); pre-growing skips the append-doubling
	// churn on the first, cold run.
	rp.done = slab.Grow(rp.done, total)
	done := rp.eng.Batch(w, rx, math.Inf(1), rp.done[:0])
	rp.apply(done)
	rp.done = done[:0]
	rp.collisionLosses = rp.eng.Counters.CollisionLosses
	rp.capacityDrops = rp.eng.Counters.CapacityDrops
	rp.sensitivityMisses = rp.eng.Counters.SensitivityMisses
}

// Summary renders headline statistics for logs.
func (r *Result) Summary() string {
	totalAttempts, totalDelivered := 0, 0
	for i := range r.Attempts {
		totalAttempts += r.Attempts[i]
		totalDelivered += r.Delivered[i]
	}
	prr := 0.0
	if totalAttempts > 0 {
		prr = float64(totalDelivered) / float64(totalAttempts)
	}
	return fmt.Sprintf("attempts=%d delivered=%d prr=%.3f collisions=%d capacity_drops=%d sensitivity_misses=%d",
		totalAttempts, totalDelivered, prr, r.CollisionLosses, r.CapacityDrops, r.SensitivityMisses)
}
