package sim

import (
	"math"
	"slices"

	"eflora/internal/engine"
	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/rng"
	"eflora/internal/slab"
)

// The schedule is every transmission sorted by (start, device, attempt):
// device i sends packet m at m·interval_i + u·slack_i, with the jitter
// draws u taken from the master RNG device by device, packet by packet,
// and the fading draws (one per transmission and gateway) following them
// in schedule order. Under confirmed traffic a failed transmission's
// retry joins the schedule too, at its end plus a backoff drawn from its
// device's own stream. The windowed loop never materializes that
// schedule. Five observations let it stream it window by window,
// bit-identically at any window length:
//
//  1. A device's first transmissions strictly increase in start (the
//     jitter stays within one reporting interval), so a window is the
//     union of per-device runs. One RNG snapshot per device replays that
//     device's jitter draws lazily; the master RNG skips the whole jitter
//     block up front and then draws each window's fading in window order,
//     which is schedule order. The device scan emits each window's first
//     transmissions device by device, the retransmissions due in the
//     window follow, and orderWindow sorts them all into schedule order
//     in linear time.
//  2. Completing a reception at a window boundary W instead of at the
//     next arrival cannot change its verdict: any later arrival starts at
//     or after W, hence at or after the reception's end, and therefore
//     never overlaps it. So in-flight receptions carry over inside the
//     per-gateway engine state and everything ending at or before W is
//     flushed, letting the window's buffers be recycled.
//  3. Verdicts are merged in ascending gateway order into a pending ring
//     ordered by token (= schedule order) and resolved from the head, so
//     counters, per-device deliveries, traces and SNR measurements
//     accumulate in schedule order whatever the window boundaries.
//  4. A reception below sensitivity is invisible at its gateway: it locks
//     nothing, corrupts nothing, and its NoSignal verdict never wins the
//     merge. So the sensitivity decision can be made on the raw fading
//     draw, before any floating-point work: a draw below its link's
//     rng.RayleighMissBound certainly misses, and only the draws at or
//     above it pay the logarithm and the exact received-power test. Each
//     gateway's sweep then sees only the entries that cleared it, under
//     their schedule tokens, and the misses are counted, not swept.
//  5. A transmission's cross-gateway verdict is final at the first cut at
//     or after its end, and its retry starts at least DefaultAckTimeoutS
//     after that end. With windows no longer than DefaultAckTimeoutS, the
//     retry therefore starts after that cut and enters a later window's
//     scan, and its backoff, drawn from its device's stream, does not
//     depend on where the cuts fall. An acknowledgement's half-duplex
//     window is registered by the sweep itself (engine.Retire) at the
//     point where the uplink's verdict becomes final, before any later
//     arrival at that gateway is checked.

// pendTx is one transmission whose cross-gateway verdict is still being
// assembled; the ring of them is bounded by the windows a reception can
// span.
type pendTx struct {
	start, end float64
	dev, outGw int32
	attempt    uint8
	outcome    Outcome
	delivered  bool
}

// windowFactor scales the harmonic-mean reporting interval into the
// derived window length. A window then holds about one transmission per
// device, so the device scan costs about one check per transmission; the
// sweep that chose it is in DESIGN.md ("Unified receiver engine &
// streaming windows").
const windowFactor = 1.0

// deriveWindow picks the window length from the schedule columns: the
// larger of windowFactor times the harmonic-mean reporting interval
// n / Σ 1/interval_i and twice the longest time-on-air, so most
// receptions complete in the window they start in.
func deriveWindow(sc *Scratch) float64 {
	maxToA, rate := 0.0, 0.0
	for i, iv := range sc.interval {
		maxToA = max(maxToA, sc.toa[i])
		rate += 1 / iv
	}
	return max(2*maxToA, windowFactor*float64(len(sc.interval))/rate)
}

// startSchedule positions the per-device jitter streams at their first
// packet, empties the retransmission queue and returns the number of
// devices with transmissions to send. After it returns, r sits where the
// fading draws begin.
func startSchedule(sc *Scratch, r *rng.RNG) int {
	n := len(sc.packets)
	sc.retx = sc.retx[:0]
	sc.devRng = slab.Grow(sc.devRng, n)
	sc.nextStart = slab.Grow(sc.nextStart, n)
	sc.nextM = slab.GrowZero(sc.nextM, n)
	for i := 0; i < n; i++ {
		sc.devRng[i] = *r
		for m := 0; m < sc.packets[i]; m++ {
			r.Float64()
		}
	}
	for i := 0; i < n; i++ {
		sc.nextStart[i] = sc.devRng[i].Float64() * sc.slack[i]
	}
	return n
}

// nextWindow fills sc.win with every unsent transmission starting below
// cut, in schedule order with tokens from tok0, and returns how many
// devices still have first transmissions left (left is the count
// before): the device scan's first transmissions, then the queued
// retransmissions due in the window, ordered by orderWindow.
//
//eflora:hotpath
func (sc *Scratch) nextWindow(a model.Allocation, tok0 int, cut float64, left int) int {
	scan := sc.scan[:0]
	for i, s := range sc.nextStart {
		if s >= cut {
			continue
		}
		m := sc.nextM[i]
		key := entryKey(i, 1)
		for s < cut {
			scan = append(scan, txEntry{start: s, key: key})
			if m++; m == sc.packets[i] {
				s = math.Inf(1)
				left--
				break
			}
			s = float64(m)*sc.interval[i] + sc.devRng[i].Float64()*sc.slack[i]
		}
		sc.nextStart[i], sc.nextM[i] = s, m
	}
	queued := sc.retx[:0]
	for _, q := range sc.retx {
		if q.start < cut {
			scan = append(scan, txEntry{start: q.start, key: entryKey(int(q.dev), q.attempt)})
		} else {
			queued = append(queued, q)
		}
	}
	sc.retx = queued
	sc.scan = scan
	sc.order, sc.bucketEnd = orderWindow(sc.order, scan, sc.bucketEnd)
	w := &sc.win
	w.Reset(tok0)
	w.Grow(len(sc.order))
	for _, e := range sc.order {
		d := e.dev()
		w.Append(int(d), a.SF[d], a.Channel[d], e.start, e.start+sc.toa[d], sc.tpMW[d])
	}
	return left
}

// fadeWindow draws the current window's fading in schedule order, one
// raw draw per entry and gateway (t, then k), and fills each gateway's
// selection with the entries whose received power clears sensitivity.
// A draw below its link's miss bound is a miss without further work;
// only a draw at or above it becomes a received power, and only a power
// that clears sensitivity joins gateway k's selection, with the power
// stored at its entry in gateway k's power column. It returns how many
// of the window's receptions missed.
//
//eflora:hotpath
func (sc *Scratch) fadeWindow(r *rng.RNG, g int, sensMW *[6]float64) int {
	w := &sc.win
	wn := w.Len()
	sel := slab.Grow(sc.sel, wn*g)
	vis := slab.Grow(sc.vis, wn*g)
	nsel := slab.GrowZero(sc.nsel, g)
	sc.sel, sc.vis, sc.nsel = sel, vis, nsel
	scale, bound := sc.scale, sc.bound
	for t := 0; t < wn; t++ {
		row := int(w.Dev[t]) * g
		sens := sensMW[w.SF[t]-lora.SF7]
		for k := 0; k < g; k++ {
			m := r.Uint53()
			if m < bound[row+k] {
				continue
			}
			if rx := scale[row+k] * rng.RayleighGainOf(m); rx >= sens {
				sel[k*wn+nsel[k]], vis[k*wn+t] = int32(t), rx
				nsel[k]++
			}
		}
	}
	misses := wn * g
	for _, c := range nsel {
		misses -= c
	}
	return misses
}

// linkBounds fills the per-(device, gateway) link columns for a run
// over g gateways: sc.scale holds transmit power times path gain, so a
// reception's received power is scale·rng.RayleighGainOf(m) for its raw
// fading draw m, and sc.bound holds the draw below which that power is
// certainly under the sensitivity of the device's spreading factor.
func linkBounds(sc *Scratch, gains [][]float64, g int, sf []lora.SF, sensMW *[6]float64) {
	n := len(sc.tpMW)
	sc.scale = slab.Grow(sc.scale, n*g)
	sc.bound = slab.Grow(sc.bound, n*g)
	for i, tp := range sc.tpMW {
		sens := sensMW[sf[i]-lora.SF7]
		for k, gain := range gains[i] {
			s := tp * gain
			sc.scale[i*g+k] = s
			sc.bound[i*g+k] = rng.RayleighMissBound(s, sens)
		}
	}
}

// simulate is the windowed loop behind Run and RunConfirmed, after
// validation and defaults. Each transmission gets at most maxAttempts
// attempts (1 for Run); halfDuplex makes the lowest gateway that
// delivers an uplink deaf for its acknowledgement. window <= 0 derives
// the window length from the inputs (deriveWindow); a run that can
// retransmit uses DefaultAckTimeoutS instead and caps a longer window at
// it. The outputs do not depend on the window, and tests sweep it. It
// leaves the per-device energy accounting to the caller.
//
//eflora:hotpath
func (sc *Scratch) simulate(net *model.Network, p model.Params, a model.Allocation, cfg Config, window float64, maxAttempts int, halfDuplex bool) (*ConfirmedResult, error) {
	n, g := net.N(), net.G()
	simEnd, err := deviceSchedule(sc, net, p, a, cfg.PacketsPerDevice)
	if err != nil {
		return nil, err
	}
	if maxAttempts > 1 && (window <= 0 || window > DefaultAckTimeoutS) {
		// A retry starts at least DefaultAckTimeoutS after the end of the
		// transmission it repeats, so with windows no longer than that it
		// lands in a later window; the cuts j·DefaultAckTimeoutS are exact.
		window = DefaultAckTimeoutS
	}
	if window <= 0 {
		window = deriveWindow(sc)
	}
	noiseMW := lora.DBmToMilliwatts(p.NoiseDBm)
	engCfg := engineConfig(p, cfg.captureLin(), noiseMW, cfg.Capture, halfDuplex)
	sensMW := &engCfg.Thresholds.SensitivityMW
	linkBounds(sc, model.Gains(net, p), g, a.SF, sensMW)

	res := initResult(sc, n, simEnd, cfg.MeasureSNR)
	if cfg.Trace {
		// The trace is the one output of run length: size it for the
		// first transmissions once.
		total := 0
		for _, m := range sc.packets {
			total += m
		}
		sc.trace = slices.Grow(sc.trace[:0], total)
	}
	gws := slab.Grow(sc.gws, g)
	sc.gws = gws
	for k := range gws {
		gws[k].Reset(engCfg)
	}

	r := rng.New(cfg.Seed)
	left := startSchedule(sc, r)
	if maxAttempts > 1 {
		startRetries(sc, cfg.Seed)
	}
	pend := sc.pend[:0]
	pendBase := 0
	misses := 0
	// A delivered uplink's acknowledgement goes out in RX1, one second
	// after its end, at its SF, through the lowest gateway that delivered
	// it. Gateways sweep in ascending order and merge into the ring after
	// their sweep, so a token already marked delivered when gateway k
	// retires it was delivered by a lower gateway. The hook reads the
	// ring through a copy of its header, refreshed before each window's
	// sweeps, so that the loop's own pend and pendBase stay in registers.
	var retire engine.Retire
	var ring struct {
		pend []pendTx
		base int
	}
	var ackToA [6]float64
	if halfDuplex {
		for _, s := range lora.SFs() {
			ackToA[s-lora.SF7] = lora.TimeOnAir(13, s, p.BandwidthHz, p.CodingRate)
		}
		retire = func(tok int) (float64, float64, bool) {
			pt := &ring.pend[tok-ring.base]
			if pt.delivered {
				return 0, 0, false
			}
			from := pt.end + 1
			return from, from + ackToA[a.SF[pt.dev]-lora.SF7], true
		}
	}
	prev := 0.0
	for j := 1; ; j++ {
		cut := float64(j) * window
		if left == 0 && maxAttempts == 1 {
			// The schedule is drained and nothing can retry; one final
			// +Inf window flushes the carried-over receptions.
			cut = math.Inf(1)
		}
		left = sc.nextWindow(a, pendBase+len(pend), cut, left)
		w := &sc.win
		for t, e := range sc.order {
			pend = append(pend, pendTx{
				start: e.start, end: w.EndS[t],
				dev: w.Dev[t], outGw: -1, attempt: e.attempt(),
			})
		}
		misses += sc.fadeWindow(r, g, sensMW)
		// The gateways replay their selections in ascending order, each
		// against its persistent engine state (the cross-window
		// carry-over), and each gateway's verdicts merge into the ring
		// before the next replays: a delivery anywhere delivers, the most
		// informative outcome wins and the lowest delivering gateway is
		// the one recorded. The sweep emits the Capacity verdicts itself,
		// so its list is the one Done stream.
		wn := w.Len()
		ring.pend, ring.base = pend, pendBase
		for k := range gws {
			eng := &gws[k]
			col := k * wn
			sc.done = eng.Sweep(w, sc.sel[col:col+sc.nsel[k]], sc.vis[col:col+wn], cut, sc.done[:0], retire)
			for _, d := range sc.done {
				pt := &pend[d.Tok-pendBase]
				if d.Outcome == OutcomeDelivered {
					pt.delivered = true
					if res.MaxSNRdB != nil {
						if snr := eng.SNRdB(d.RxMW); snr > res.MaxSNRdB[pt.dev] {
							res.MaxSNRdB[pt.dev] = snr
						}
					}
				}
				if d.Outcome > pt.outcome {
					pt.outcome = d.Outcome
					if d.Outcome == OutcomeDelivered {
						pt.outGw = int32(k)
					}
				}
			}
		}
		if maxAttempts > 1 {
			// Settle every transmission that ended in (prev, cut], wherever
			// it sits in the ring: its verdict is final, and a failed
			// attempt's retry must be queued before the window it starts
			// in is scanned.
			for i := range pend {
				pt := &pend[i]
				if pt.delivered || int(pt.attempt) == maxAttempts || pt.end <= prev || pt.end > cut {
					continue
				}
				d := pt.dev
				backoff := DefaultAckTimeoutS + sc.backoff[d].Float64()*DefaultBackoffS
				sc.retx = append(sc.retx, retxTx{start: pt.end + backoff, dev: d, attempt: pt.attempt + 1})
				res.Attempts[d]++
				res.Retransmissions++
			}
		}
		// Resolve fully-decided transmissions from the ring head in token
		// order: everything ending at or before the cut has its final
		// verdict at every gateway.
		h := 0
		for h < len(pend) && pend[h].end <= cut {
			pt := &pend[h]
			if pt.delivered {
				res.Delivered[pt.dev]++
			}
			if cfg.Trace {
				sc.trace = append(sc.trace, PacketRecord{
					Device: int(pt.dev), StartS: pt.start,
					Outcome: pt.outcome, Gateway: int(pt.outGw),
				})
			}
			h++
		}
		pend = pend[:copy(pend, pend[h:])]
		pendBase += h
		prev = cut
		if left == 0 && len(pend) == 0 && len(sc.retx) == 0 {
			break
		}
	}
	sc.pend = pend

	res.SensitivityMisses = misses
	for k := range gws {
		c := gws[k].Counters
		res.CollisionLosses += c.CollisionLosses
		res.CapacityDrops += c.CapacityDrops
		res.AckBlocked += c.AckBlocked
	}
	if cfg.Trace {
		res.Trace = sc.trace
	}
	return res, nil
}

// run is Run after validation and defaults, with the window length as a
// parameter (see simulate).
func run(net *model.Network, p model.Params, a model.Allocation, cfg Config, window float64) (*Result, error) {
	sc := cfg.Scratch
	if sc == nil {
		sc = new(Scratch)
	}
	res, err := sc.simulate(net, p, a, cfg, window, 1, false)
	if err != nil {
		return nil, err
	}
	finishResult(&res.Result, p, a, sc.toa, res.SimTimeS)
	return &res.Result, nil
}
