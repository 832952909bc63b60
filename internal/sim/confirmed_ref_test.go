package sim

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"eflora/internal/engine"
	"eflora/internal/geo"
	"eflora/internal/golden"
	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/rng"
)

// refTx is one transmission attempt of the reference event loop.
type refTx struct {
	dev, attempt int
	outGw        int // lowest delivering gateway, -1 otherwise
	start, end   float64
	outcome      Outcome
}

// refHeap orders attempt indices by (start, device, attempt), or by
// (end, device, attempt) when byEnd is set.
type refHeap struct {
	txs   *[]refTx
	idx   []int
	byEnd bool
}

func (h *refHeap) Len() int      { return len(h.idx) }
func (h *refHeap) Swap(i, j int) { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *refHeap) Push(x any)    { h.idx = append(h.idx, x.(int)) }
func (h *refHeap) Pop() any {
	x := h.idx[len(h.idx)-1]
	h.idx = h.idx[:len(h.idx)-1]
	return x
}
func (h *refHeap) Less(i, j int) bool {
	a, b := &(*h.txs)[h.idx[i]], &(*h.txs)[h.idx[j]]
	ka, kb := a.start, b.start
	if h.byEnd {
		ka, kb = a.end, b.end
	}
	if ka != kb {
		return ka < kb
	}
	if a.dev != b.dev {
		return a.dev < b.dev
	}
	return a.attempt < b.attempt
}

// top is the attempt at the head of the heap.
func (h *refHeap) top() *refTx { return &(*h.txs)[h.idx[0]] }

// refRunConfirmed is the scalar event loop confirmed traffic used to run
// on, kept as the reference the windowed loop is checked against. It
// materializes every attempt and walks start and end events in time order,
// an end at time t before a start at t. Each start enters every gateway's
// engine as a one-entry Batch window cut at the start, each end runs
// FinishUpTo on every gateway, and it registers each delivered uplink's
// acknowledgement at its lowest delivering gateway when the end event is
// handled. It consumes randomness the way the windowed loop does: every
// jitter first, device-major, from the master stream; the fading of each
// attempt from the master stream at its start event, in (start, device,
// attempt) order; and the backoffs from the per-device streams.
func refRunConfirmed(net *model.Network, p model.Params, a model.Allocation, cfg ConfirmedConfig, maxAttempts int) *ConfirmedResult {
	n, g := net.N(), net.G()
	sc := new(Scratch)
	simEnd, err := deviceSchedule(sc, net, p, a, cfg.PacketsPerDevice)
	if err != nil {
		panic(err)
	}
	gains := model.Gains(net, p)
	r := rng.New(cfg.Seed)
	backoff := make([]*rng.RNG, n)
	for i := range backoff {
		backoff[i] = rng.New(backoffSeed(cfg.Seed, i))
	}
	engCfg := engineConfig(p, cfg.captureLin(), lora.DBmToMilliwatts(p.NoiseDBm), cfg.Capture, cfg.HalfDuplexAcks)
	eng := make([]engine.Gateway, g)
	for k := range eng {
		eng[k].Reset(engCfg)
	}
	var ackToA [6]float64
	for _, s := range lora.SFs() {
		ackToA[s-lora.SF7] = lora.TimeOnAir(13, s, p.BandwidthHz, p.CodingRate)
	}

	res := &ConfirmedResult{Generated: slices.Clone(sc.packets)}
	res.Attempts = make([]int, n)
	res.Delivered = make([]int, n)
	res.PRR = make([]float64, n)
	res.TxEnergyJ = make([]float64, n)
	res.TotalEnergyJ = make([]float64, n)
	res.EE = make([]float64, n)
	res.AvgPowerW = make([]float64, n)
	res.RetxAvgPowerW = make([]float64, n)
	res.SimTimeS = simEnd
	if cfg.MeasureSNR {
		res.MaxSNRdB = make([]float64, n)
		for i := range res.MaxSNRdB {
			res.MaxSNRdB[i] = math.Inf(-1)
		}
	}

	var txs []refTx
	verdicts := map[[2]int]engine.Done{} // completed (attempt, gateway) verdicts
	starts := &refHeap{txs: &txs}
	ends := &refHeap{txs: &txs, byEnd: true}
	newTx := func(dev, attempt int, start float64) {
		txs = append(txs, refTx{dev: dev, attempt: attempt, outGw: -1, start: start, end: start + sc.toa[dev]})
		heap.Push(starts, len(txs)-1)
	}
	for i := 0; i < n; i++ {
		for m := 0; m < sc.packets[i]; m++ {
			newTx(i, 1, float64(m)*sc.interval[i]+r.Float64()*sc.slack[i])
		}
	}

	var done []engine.Done
	var win engine.Window
	rx := make([]float64, 1)
	for starts.Len() > 0 || ends.Len() > 0 {
		if ends.Len() == 0 || starts.Len() > 0 && starts.top().start < ends.top().end {
			t := heap.Pop(starts).(int)
			tx := &txs[t]
			res.Attempts[tx.dev]++
			win.Reset(t)
			win.Append(tx.dev, a.SF[tx.dev], a.Channel[tx.dev], tx.start, tx.end, 0)
			for k := range eng {
				rx[0] = sc.tpMW[tx.dev] * gains[tx.dev][k] * r.RayleighPowerGain()
				// Every reception that ended by this start has been
				// completed at its end event, so the only Done is the
				// arrival's own no-signal or capacity verdict.
				done = eng[k].Batch(&win, rx, tx.start, done[:0])
				for _, d := range done {
					tx.outcome = max(tx.outcome, d.Outcome)
				}
			}
			heap.Push(ends, t)
			continue
		}
		t := heap.Pop(ends).(int)
		tx := &txs[t]
		delivered := false
		for k := range eng {
			done = eng[k].FinishUpTo(tx.end, done[:0])
			for _, d := range done {
				verdicts[[2]int{d.Tok, k}] = d
			}
			d, ok := verdicts[[2]int{t, k}]
			if !ok {
				continue
			}
			delete(verdicts, [2]int{t, k})
			if d.Outcome == OutcomeDelivered {
				delivered = true
				if res.MaxSNRdB != nil {
					res.MaxSNRdB[tx.dev] = max(res.MaxSNRdB[tx.dev], eng[k].SNRdB(d.RxMW))
				}
			}
			if d.Outcome > tx.outcome {
				tx.outcome = d.Outcome
				if d.Outcome == OutcomeDelivered {
					tx.outGw = k
				}
			}
		}
		if delivered && cfg.HalfDuplexAcks {
			ackStart := tx.end + 1
			eng[tx.outGw].AddAckWindow(ackStart, ackStart+ackToA[a.SF[tx.dev]-lora.SF7])
		}
		v := *tx
		switch {
		case delivered:
			res.Delivered[v.dev]++
		case v.attempt < maxAttempts:
			res.Retransmissions++
			backoff := DefaultAckTimeoutS + backoff[v.dev].Float64()*DefaultBackoffS
			newTx(v.dev, v.attempt+1, v.end+backoff)
		default:
			res.Abandoned++
		}
		if cfg.Trace {
			res.Trace = append(res.Trace, PacketRecord{
				Device: v.dev, StartS: v.start, Outcome: v.outcome, Gateway: v.outGw,
			})
		}
	}
	for k := range eng {
		c := eng[k].Counters
		res.CollisionLosses += c.CollisionLosses
		res.CapacityDrops += c.CapacityDrops
		res.SensitivityMisses += c.SensitivityMisses
		res.AckBlocked += c.AckBlocked
	}
	lbits := p.AppPayloadBits()
	for i := 0; i < n; i++ {
		res.PRR[i] = float64(res.Delivered[i]) / float64(res.Generated[i])
		res.chargeEnergy(i, p, lbits, a.TPdBm[i], sc.toa[i], simEnd)
		res.RetxAvgPowerW[i] = res.AvgPowerW[i]
	}
	return res
}

// confirmedDigest hashes every field of a ConfirmedResult exactly, with
// the trace sorted by (start, device): the reference appends it in
// completion order, the windowed loop in schedule order.
func confirmedDigest(res *ConfirmedResult) string {
	sorted := res.Result
	sorted.Trace = slices.Clone(res.Trace)
	slices.SortStableFunc(sorted.Trace, func(x, y PacketRecord) int {
		if x.StartS != y.StartS {
			if x.StartS < y.StartS {
				return -1
			}
			return 1
		}
		return x.Device - y.Device
	})
	return golden.Digest(
		resultDigest(&sorted),
		golden.Ints(res.Generated),
		fmt.Sprintf("%d %d %d", res.Retransmissions, res.Abandoned, res.AckBlocked),
	)
}

// refScenario is a small congested network for the reference
// comparisons: 20–50 devices on 1–3 gateways, every device at its lowest
// feasible SF on one of two channels at 5–10 % duty, so collisions,
// retransmissions and, with half-duplex ACKs, blocked uplinks are common.
// zeroSlack shortens every reporting period below the longest air time,
// so the devices with the longest air time start at the same instants.
func refScenario(seed uint64, zeroSlack bool) (*model.Network, model.Params, model.Allocation) {
	r := rng.New(seed)
	radius := 1500 + 2500*r.Float64()
	net := &model.Network{
		Devices:  geo.UniformDisc(20+r.Intn(31), radius, r),
		Gateways: geo.GridGateways(1+r.Intn(3), radius),
	}
	p := model.DefaultParams()
	p.TrafficDutyCycle = 0.05 + 0.05*r.Float64()
	gains := model.Gains(net, p)
	a := model.NewAllocation(net.N(), p.Plan)
	tpLevels := p.Plan.TxPowerLevels()
	for i := range a.SF {
		sf, ok := model.MinFeasibleSF(gains, i, p.Plan.MaxTxPowerDBm)
		if !ok {
			sf = lora.MaxSF
		}
		a.SF[i] = sf
		a.TPdBm[i] = tpLevels[r.Intn(len(tpLevels))]
		a.Channel[i] = r.Intn(2)
	}
	if zeroSlack {
		p.TrafficDutyCycle = 0
		p.PacketIntervalS = (0.3 + 0.7*r.Float64()) * streamMaxToA(p, a)
	}
	return net, p, a
}

// TestConfirmedMatchesReference requires the windowed loop to reproduce
// the scalar event loop's ConfirmedResult exactly, over 50 networks ×
// half-duplex ACKs off and on × capture off and on × 1, 2, 4 and 8
// attempts per packet × windows of 0.25 s, 1 s and 2 s. Every half-duplex
// case that retransmits must block some uplink, so blocking within one
// window is exercised.
func TestConfirmedMatchesReference(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	var cases, blocked, retx int
	sc := new(Scratch)
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		net, p, a := refScenario(seed, seed%5 == 0)
		for _, halfDuplex := range []bool{false, true} {
			for _, capture := range []bool{false, true} {
				for _, attempts := range []int{1, 2, 4, 8} {
					cfg := ConfirmedConfig{
						Config: Config{PacketsPerDevice: 6, Seed: seed + 100, Capture: capture,
							Trace: true, MeasureSNR: true},
						HalfDuplexAcks: halfDuplex,
					}
					ref := refRunConfirmed(net, p, a, cfg, attempts)
					want := confirmedDigest(ref)
					if halfDuplex && attempts > 1 && ref.AckBlocked == 0 {
						t.Errorf("seed %d capture=%v attempts=%d: no uplink blocked by an ACK", seed, capture, attempts)
					}
					cases++
					blocked += ref.AckBlocked
					retx += ref.Retransmissions
					for _, win := range []float64{0.25, 1, 2} {
						cfg.Scratch = sc
						got, err := runConfirmed(net, p, a, cfg, win, attempts)
						if err != nil {
							t.Fatal(err)
						}
						if d := confirmedDigest(got); d != want {
							t.Fatalf("seed %d half-duplex=%v capture=%v attempts=%d window=%g: %s",
								seed, halfDuplex, capture, attempts, win, confirmedDiff(got, ref))
						}
					}
				}
			}
		}
	}
	t.Logf("%d cases, %d retransmissions, %d ACK-blocked uplinks", cases, retx, blocked)
}

// confirmedDiff names the first field on which two results differ.
func confirmedDiff(got, want *ConfirmedResult) string {
	var b strings.Builder
	field := func(name string, g, w any) {
		if b.Len() == 0 && fmt.Sprint(g) != fmt.Sprint(w) {
			fmt.Fprintf(&b, "%s: got %v, reference %v", name, g, w)
		}
	}
	field("Retransmissions", got.Retransmissions, want.Retransmissions)
	field("Abandoned", got.Abandoned, want.Abandoned)
	field("AckBlocked", got.AckBlocked, want.AckBlocked)
	field("CollisionLosses", got.CollisionLosses, want.CollisionLosses)
	field("CapacityDrops", got.CapacityDrops, want.CapacityDrops)
	field("SensitivityMisses", got.SensitivityMisses, want.SensitivityMisses)
	field("Attempts", got.Attempts, want.Attempts)
	field("Delivered", got.Delivered, want.Delivered)
	field("MaxSNRdB", got.MaxSNRdB, want.MaxSNRdB)
	if b.Len() == 0 {
		return "digests differ (energy or trace)"
	}
	return b.String()
}

// FuzzConfirmedMatchesReference runs fuzz-chosen small networks through
// the windowed loop and the reference event loop and requires identical
// results. Its knobs are half-duplex ACKs, capture, the attempt limit
// (1–8), the window length (0.25–2 s) and zero-slack ties.
func FuzzConfirmedMatchesReference(f *testing.F) {
	for trial := uint64(0); trial < 4; trial++ {
		f.Add(uint64(91001)+trial, trial, uint8(7), uint8(trial*85))
	}
	sc := new(Scratch)
	f.Fuzz(func(t *testing.T, seed, knobs uint64, attempts, window uint8) {
		net, p, a := refScenario(seed, knobs&zeroSlackKnob != 0)
		cfg := ConfirmedConfig{
			Config: Config{PacketsPerDevice: 3 + int(seed%6), Seed: knobs, Capture: knobs&1 != 0,
				Trace: true, MeasureSNR: true},
			HalfDuplexAcks: knobs&2 != 0,
		}
		maxAttempts := 1 + int(attempts%MaxTransmissions)
		win := 0.25 + 1.75*float64(window)/255
		ref := refRunConfirmed(net, p, a, cfg, maxAttempts)
		cfg.Scratch = sc
		got, err := runConfirmed(net, p, a, cfg, win, maxAttempts)
		if err != nil {
			t.Fatal(err)
		}
		if confirmedDigest(got) != confirmedDigest(ref) {
			t.Fatalf("window=%g attempts=%d: %s", win, maxAttempts, confirmedDiff(got, ref))
		}
	})
}

// TestConfirmedStreamsSchedule runs the same network at 10 and at 100
// packets per device: no Scratch buffer may grow with the packet count,
// so a run ten times as long keeps every buffer within twice its
// capacity at the short run, and far below the transmission count.
func TestConfirmedStreamsSchedule(t *testing.T) {
	net, p, a := goldenNetwork(120, 3)
	caps := func(packets int) (map[string]int, int) {
		sc := new(Scratch)
		res, err := RunConfirmed(net, p, a, ConfirmedConfig{
			Config:         Config{PacketsPerDevice: packets, Seed: 5, Scratch: sc},
			HalfDuplexAcks: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Retransmissions == 0 {
			t.Fatal("no retransmissions: the network does not exercise the queues")
		}
		total := 0
		for _, at := range res.Attempts {
			total += at
		}
		return map[string]int{
			"scan": cap(sc.scan), "order": cap(sc.order), "bucketEnd": cap(sc.bucketEnd),
			"win": cap(sc.win.StartS), "sel": cap(sc.sel), "vis": cap(sc.vis),
			"done": cap(sc.done), "pend": cap(sc.pend), "retx": cap(sc.retx),
			"backoff": cap(sc.backoff),
		}, total
	}
	short, _ := caps(10)
	long, total := caps(100)
	for name, c := range long {
		if c > 2*short[name] || c > total/20 {
			t.Errorf("%s: capacity %d at 100 packets per device, %d at 10 (%d transmissions)",
				name, c, short[name], total)
		}
	}
	t.Logf("capacities at 10 packets %v, at 100 %v (%d transmissions)", short, long, total)
}
