package sim

import (
	"math"

	"eflora/internal/engine"
	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/rng"
	"eflora/internal/slab"
)

// ConfirmedConfig extends Config for confirmed (acknowledged) uplink
// traffic: a device that receives no acknowledgement retransmits after
// DefaultAckTimeoutS plus a uniform random backoff of up to
// DefaultBackoffS, up to MaxAttempts transmissions per packet — LoRaWAN
// confirmed-uplink behaviour. Retransmissions add load, which adds
// collisions, which adds retransmissions: the feedback loop the
// unconfirmed energy approximation (Result.RetxAvgPowerW) linearizes away.
type ConfirmedConfig struct {
	Config
	// MaxAttempts per packet including the first transmission
	// (default 8, the LoRaWAN limit).
	MaxAttempts int
	// HalfDuplexAcks models the gateway's transmit cost: the gateway that
	// acknowledges a packet cannot receive while its downlink is in the
	// air (LoRa gateways are half-duplex), so uplinks arriving during the
	// ACK are lost at that gateway. The ACK goes out in RX1 (1 s after
	// the uplink) at the uplink's spreading factor.
	HalfDuplexAcks bool

	// hooks, when non-nil, replaces the initial schedule's jitter and
	// fading draws — the in-package seam the differential Run-vs-confirmed
	// test uses to replay sim.Run's exact randomness through this event
	// loop. Retransmission draws always come from the run's own RNG.
	hooks *confirmedHooks
}

// confirmedHooks supplies the initial-schedule randomness: jitter returns
// the uniform [0,1) draw for device dev's m-th packet, fading the Rayleigh
// power gain for that packet at gateway k.
type confirmedHooks struct {
	jitter func(dev, m int) float64
	fading func(dev, m, k int) float64
}

// DefaultAckTimeoutS is the delay before a retransmission (the class-A
// RX-window span); DefaultBackoffS bounds the uniform random backoff
// added to it.
const (
	DefaultAckTimeoutS = 2.0
	DefaultBackoffS    = 4.0
)

func (c ConfirmedConfig) withDefaults() ConfirmedConfig {
	c.Config = c.Config.withDefaults()
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = MaxTransmissions
	}
	return c
}

// ConfirmedResult extends Result with confirmed-traffic accounting.
type ConfirmedResult struct {
	Result
	// Generated counts packets handed to the MAC per device; Attempts in
	// the embedded Result counts transmissions (>= Generated).
	Generated []int
	// Retransmissions counts transmissions beyond each packet's first.
	Retransmissions int
	// Abandoned counts packets dropped after MaxAttempts.
	Abandoned int
	// AckBlocked counts uplink receptions lost because the gateway was
	// transmitting an acknowledgement (HalfDuplexAcks only).
	AckBlocked int
}

// cTx is one transmission attempt, stored inline in the event loop's slab
// (heaps hold slab indices, so nothing is boxed per event). Received
// powers live in the flattened companion slab (attempt t, gateway k at
// t*g+k); per-gateway lock and collision state lives inside the engines.
type cTx struct {
	dev     int
	attempt int // 1-based
	outGw   int // lowest delivering gateway, -1 otherwise
	start   float64
	end     float64
	outcome Outcome
}

// confirmedRun is RunConfirmed's event-loop state, resident in a Scratch
// so repeated runs reuse the slabs, the heaps and the per-gateway engines.
// The wiring fields are rebound every run.
type confirmedRun struct {
	// Arena (persists across runs at high-water capacity).
	ctxs         []cTx
	rxMW         []float64
	starts, ends []int32
	eng          []engine.Gateway
	trace        []PacketRecord
	res          ConfirmedResult

	// Per-run wiring.
	g           int
	r           *rng.RNG
	gains       [][]float64
	sf          []lora.SF
	ch          []int
	toa, tpMW   []float64
	ackToA      [6]float64
	maxAttempts int
	halfDuplex  bool
	traceOn     bool
	hooks       *confirmedHooks
}

// The two index heaps replicate container/heap's sift order exactly
// (identical comparisons produce identical layouts and therefore an
// identical pop order, which the confirmed golden digest pins) while
// keeping attempts unboxed in the slab.

// less orders heap entries by slab start (byEnd false) or end (byEnd true).
func (c *confirmedRun) less(h []int32, byEnd bool, x, y int) bool {
	a, b := h[x], h[y]
	if byEnd {
		return c.ctxs[a].end < c.ctxs[b].end
	}
	return c.ctxs[a].start < c.ctxs[b].start
}

//eflora:hotpath
func (c *confirmedRun) heapPush(h []int32, byEnd bool, v int32) []int32 {
	h = append(h, v)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !c.less(h, byEnd, j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

//eflora:hotpath
func (c *confirmedRun) heapPop(h []int32, byEnd bool) ([]int32, int32) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	c.heapDown(h[:n], byEnd)
	return h[:n], h[n]
}

func (c *confirmedRun) heapDown(h []int32, byEnd bool) {
	n := len(h)
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && c.less(h, byEnd, j2, j) {
			j = j2
		}
		if !c.less(h, byEnd, j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// newTx appends one attempt to the slab, drawing (or replaying, for the
// initial schedule under hooks) its per-gateway fading. m is the packet
// index for hook lookups, -1 for retransmissions.
//
//eflora:hotpath
func (c *confirmedRun) newTx(dev, attempt, m int, start float64) int32 {
	idx := int32(len(c.ctxs))
	c.ctxs = append(c.ctxs, cTx{
		dev: dev, attempt: attempt, outGw: -1,
		start: start, end: start + c.toa[dev],
	})
	tp := c.tpMW[dev]
	for k := 0; k < c.g; k++ {
		var f float64
		if c.hooks != nil && m >= 0 {
			f = c.hooks.fading(dev, m, k)
		} else {
			f = c.r.RayleighPowerGain()
		}
		c.rxMW = append(c.rxMW, tp*c.gains[dev][k]*f)
	}
	return idx
}

// handleStart presents the attempt to every gateway's receiver. Arrival
// rejections that out-rank the running outcome (a full or ACK-deaf
// gateway) are folded in here; lock verdicts arrive later via handleEnd.
//
//eflora:hotpath
func (c *confirmedRun) handleStart(t int32) {
	tx := &c.ctxs[t]
	c.res.Attempts[tx.dev]++
	sf, ch := c.sf[tx.dev], c.ch[tx.dev]
	base := int(t) * c.g
	for k := 0; k < c.g; k++ {
		switch c.eng[k].Arrive(int(t), tx.dev, sf, ch, tx.start, tx.end, c.rxMW[base+k]) {
		case engine.VerdictBlocked, engine.VerdictNoCapacity:
			if OutcomeCapacity > tx.outcome {
				tx.outcome = OutcomeCapacity
			}
		}
	}
}

// handleEnd completes the attempt at every gateway, schedules the ACK
// window or the retransmission, and settles the packet's accounting.
//
//eflora:hotpath
func (c *confirmedRun) handleEnd(t int32) {
	tx := &c.ctxs[t]
	delivered := false
	for k := 0; k < c.g; k++ {
		d, ok := c.eng[k].Complete(int(t))
		if !ok {
			continue
		}
		if d.Outcome == OutcomeDelivered {
			delivered = true
		}
		if d.Outcome > tx.outcome {
			tx.outcome = d.Outcome
			if d.Outcome == OutcomeDelivered {
				tx.outGw = k
			}
		}
	}
	if delivered && c.halfDuplex {
		// The network server answers through the best gateway in RX1, one
		// second after the uplink, using the uplink's SF; that gateway is
		// deaf for the ACK's air time (~13-byte frame).
		ackStart := tx.end + 1
		c.eng[tx.outGw].AddAckWindow(ackStart, ackStart+c.ackToA[c.sf[tx.dev]-lora.SF7])
	}
	// Copy before the retransmit branch: newTx appends to the slab and may
	// move it, invalidating tx.
	v := *tx
	switch {
	case delivered:
		c.res.Delivered[v.dev]++
	case v.attempt < c.maxAttempts:
		c.res.Retransmissions++
		backoff := DefaultAckTimeoutS + c.r.Float64()*DefaultBackoffS
		nt := c.newTx(v.dev, v.attempt+1, -1, v.end+backoff)
		c.starts = c.heapPush(c.starts, false, nt)
	default:
		c.res.Abandoned++
	}
	if c.traceOn {
		c.trace = append(c.trace, PacketRecord{
			Device: v.dev, StartS: v.start, Outcome: v.outcome, Gateway: v.outGw,
		})
	}
}

// RunConfirmed simulates confirmed uplink traffic with retransmissions.
// Unlike Run, it cannot stream the schedule window by window: every
// delivery outcome feeds back into the future schedule through
// retransmission timing, so it runs one scalar event loop. Reception
// physics lives in the shared engine.Gateway (one per gateway,
// half-duplex mode); this loop owns the schedule, the retransmission
// policy and the ACK windows.
//
// Config.Trace is honoured: one record per transmission attempt, appended
// in completion order (sort by StartS to recover schedule order). With a
// Config.Scratch the returned result aliases the scratch's buffers under
// the same contract as Run.
//
//eflora:hotpath
func RunConfirmed(net *model.Network, p model.Params, a model.Allocation, cfg ConfirmedConfig) (*ConfirmedResult, error) {
	if err := validate(net, p, a); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n, g := net.N(), net.G()
	sc := cfg.Scratch
	if sc == nil {
		sc = new(Scratch)
	}
	simEnd, err := deviceSchedule(sc, net, p, a, cfg.PacketsPerDevice)
	if err != nil {
		return nil, err
	}
	c := &sc.crun
	r := rng.New(cfg.Seed)
	gains := model.Gains(net, p)
	noiseMW := lora.DBmToMilliwatts(p.NoiseDBm)
	captureLin := cfg.captureLin()

	c.g = g
	c.r = r
	c.gains = gains
	c.sf, c.ch = a.SF, a.Channel
	c.toa, c.tpMW = sc.toa, sc.tpMW
	for _, s := range lora.SFs() {
		c.ackToA[s-lora.SF7] = lora.TimeOnAir(13, s, p.BandwidthHz, p.CodingRate)
	}
	c.maxAttempts = cfg.MaxAttempts
	c.halfDuplex = cfg.HalfDuplexAcks
	c.traceOn = cfg.Trace
	c.hooks = cfg.hooks

	c.ctxs = c.ctxs[:0]
	c.rxMW = c.rxMW[:0]
	c.starts = c.starts[:0]
	c.ends = c.ends[:0]
	c.trace = c.trace[:0]
	c.eng = slab.Grow(c.eng, g)
	engCfg := engineConfig(p, captureLin, noiseMW, cfg.Capture, cfg.HalfDuplexAcks)
	for k := range c.eng {
		c.eng[k].Reset(engCfg)
	}

	res := &c.res
	res.Attempts = slab.GrowZero(res.Attempts, n)
	res.Delivered = slab.GrowZero(res.Delivered, n)
	res.PRR = slab.Grow(res.PRR, n)
	res.TxEnergyJ = slab.Grow(res.TxEnergyJ, n)
	res.TotalEnergyJ = slab.Grow(res.TotalEnergyJ, n)
	res.EE = slab.Grow(res.EE, n)
	res.AvgPowerW = slab.Grow(res.AvgPowerW, n)
	res.RetxAvgPowerW = slab.Grow(res.RetxAvgPowerW, n)
	res.SimTimeS = simEnd
	res.CollisionLosses, res.CapacityDrops, res.SensitivityMisses = 0, 0, 0
	res.Trace, res.MaxSNRdB = nil, nil
	res.Generated = slab.GrowZero(res.Generated, n)
	res.Retransmissions, res.Abandoned, res.AckBlocked = 0, 0, 0

	// Initial schedule: one packet per device per period, jittered so a
	// device never overlaps itself. RNG order (jitter, then per-gateway
	// fading, device-major) is pinned by the confirmed golden digest.
	for i := 0; i < n; i++ {
		for m := 0; m < sc.packets[i]; m++ {
			res.Generated[i]++
			var j float64
			if c.hooks != nil {
				j = c.hooks.jitter(i, m)
			} else {
				j = r.Float64()
			}
			t := c.newTx(i, 1, m, float64(m)*sc.interval[i]+j*sc.slack[i])
			c.starts = c.heapPush(c.starts, false, t)
		}
	}

	for len(c.starts) > 0 || len(c.ends) > 0 {
		if len(c.ends) == 0 ||
			(len(c.starts) > 0 && c.ctxs[c.starts[0]].start < c.ctxs[c.ends[0]].end) {
			var t int32
			c.starts, t = c.heapPop(c.starts, false)
			c.handleStart(t)
			c.ends = c.heapPush(c.ends, true, t)
		} else {
			var t int32
			c.ends, t = c.heapPop(c.ends, true)
			c.handleEnd(t)
		}
	}

	for k := 0; k < g; k++ {
		cc := c.eng[k].Counters
		res.CollisionLosses += cc.CollisionLosses
		res.CapacityDrops += cc.CapacityDrops
		res.SensitivityMisses += cc.SensitivityMisses
		res.AckBlocked += cc.AckBlocked
	}
	if c.traceOn {
		res.Trace = c.trace
	}

	lbits := p.AppPayloadBits()
	for i := 0; i < n; i++ {
		res.PRR[i] = float64(res.Delivered[i]) / float64(res.Generated[i])
		if math.IsNaN(res.PRR[i]) {
			res.PRR[i] = 0
		}
		res.chargeEnergy(i, p, lbits, a.TPdBm[i], sc.toa[i], simEnd)
		// Under confirmed traffic the energy already contains the
		// retransmissions, so both power views coincide.
		res.RetxAvgPowerW[i] = res.AvgPowerW[i]
	}
	return res, nil
}
