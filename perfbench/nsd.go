package main

import (
	"encoding/base64"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"slices"
	"time"

	"eflora/internal/alloc"
	"eflora/internal/core"
	"eflora/internal/downlink"
	"eflora/internal/ingest"
	"eflora/internal/lora"
	"eflora/internal/lorawan"
	"eflora/internal/model"
	"eflora/internal/netserver"
	"eflora/internal/scenario"
	"eflora/internal/statestore"
)

// nsdSize sizes the nsd-live traffic: ingest.BuildReplay of an RS-LoRa
// deployment in which the first driftDevices devices report an SNR
// driftSNRdB below their link budget (eflora-nsd's -drift-snr default).
type nsdSize struct {
	devices, gateways, packets, driftDevices int
	driftSNRdB                               float64
}

var nsdLiveSize = nsdSize{devices: 1000, gateways: 9, packets: 40, driftDevices: 50, driftSNRdB: 10}

// eflora-nsd's defaults, which the rig is built with.
const (
	nsdShards        = 8
	nsdQueueDepth    = 1024
	nsdDedupWindowS  = 0.2
	nsdRetainCap     = 4096
	nsdReallocEveryS = 30.0
	// nsdFlushMask spaces the virtual-time dedup flushes 4096 datagrams
	// apart, as eflora-nsd -replay does.
	nsdFlushMask = 0x0FFF
)

// minReaderCoverage is the share of each traced datagram's time the
// reader path's child spans must account for; the rest is the
// benchmark's glue between the calls and the clock reads themselves.
const minReaderCoverage = 0.90

// nsdReallocConfig is eflora-nsd's -snr-margin/-min-prr/-min-frames.
var nsdReallocConfig = ingest.ReallocConfig{SNRMarginDB: 1, MinPRR: 0.7, MinFrames: 8}

// datagrams is the generated PUSH_DATA trace held pointer-free: one byte
// arena, offsets into it, and the server clock at each datagram (the
// trace time the daemon's wall clock stands in for).
type datagrams struct {
	arena []byte
	off   []uint32
	atS   []float64
}

func (d *datagrams) len() int         { return len(d.atS) }
func (d *datagrams) get(i int) []byte { return d.arena[d.off[i]:d.off[i+1]] }

// gatewayEUI is the forwarder identity of gateway index gw; gatewayOf
// inverts it, standing in for the daemon's first-sight EUI table.
func gatewayEUI(gw int) [8]byte { return [8]byte{0xEF, 0x10, 0x5A, 0, 0, 0, byte(gw >> 8), byte(gw)} }
func gatewayOf(eui [8]byte) int { return int(eui[6])<<8 | int(eui[7]) }

func devAddrOf(phy []byte) uint32 {
	return uint32(phy[1]) | uint32(phy[2])<<8 | uint32(phy[3])<<16 | uint32(phy[4])<<24
}

// nsdInputs is everything the benchmark generates for nsd-live.
type nsdInputs struct {
	net      *model.Network
	p        model.Params
	a        model.Allocation
	devices  []netserver.Device
	expected netserver.Counters
	dg       datagrams
}

func generateNSD(seed uint64, sz nsdSize) (*nsdInputs, error) {
	p := model.DefaultParams()
	netw, err := core.Build(core.Scenario{Devices: sz.devices, Gateways: sz.gateways, RadiusM: 5000, Seed: mix(seed, 1, 0)})
	if err != nil {
		return nil, err
	}
	a, err := alloc.RSLoRa{}.Allocate(netw.Net, p, nil)
	if err != nil {
		return nil, err
	}
	rt, err := ingest.BuildReplay(netw.Net, p, a, ingest.ReplayConfig{
		Packets:      sz.packets,
		Seed:         mix(seed, 2, 0),
		DedupWindowS: nsdDedupWindowS,
		DriftDevices: sz.driftDevices,
		DriftSNRdB:   sz.driftSNRdB,
	})
	if err != nil {
		return nil, err
	}
	in := &nsdInputs{net: netw.Net, p: p, a: a, devices: rt.Devices, expected: rt.Expected}
	// Each uplink becomes a single-rxpk PUSH_DATA datagram whose radio
	// fields come from the sending device's allocation.
	in.dg.off = make([]uint32, 1, len(rt.Uplinks)+1)
	in.dg.atS = make([]float64, 0, len(rt.Uplinks))
	codr := p.CodingRate.String()
	for i, up := range rt.Uplinks {
		dev, ok := ingest.IndexForAddr(devAddrOf(up.PHYPayload))
		if !ok || dev >= len(a.SF) {
			return nil, fmt.Errorf("nsd-live: replay uplink %d has no device", i)
		}
		ch := p.Plan.Uplink[a.Channel[dev]]
		tmst := uint64(0)
		if up.ReceivedAtS > 0 {
			tmst = uint64(up.ReceivedAtS * 1e6)
		}
		b, err := ingest.EncodePushData(uint16(i), gatewayEUI(up.Gateway), []ingest.RXPK{{
			Tmst: tmst,
			Freq: ch.CenterHz / 1e6,
			Chan: ch.Index,
			Stat: 1,
			Modu: "LORA",
			Datr: ingest.Datr(a.SF[dev], ch.BandwidthHz),
			Codr: codr,
			RSSI: up.RSSIdBm,
			LSNR: up.SNRdB,
			Size: len(up.PHYPayload),
			Data: base64.StdEncoding.EncodeToString(up.PHYPayload),
		}})
		if err != nil {
			return nil, err
		}
		in.dg.arena = append(in.dg.arena, b...)
		in.dg.off = append(in.dg.off, uint32(len(in.dg.arena)))
		in.dg.atS = append(in.dg.atS, up.ReceivedAtS)
	}
	return in, nil
}

// nsdRig is one daemon instance, wired as eflora-nsd wires it with
// -state-dir set: sharded pool, receiver frontend, downlink scheduler,
// tracker, online re-allocator and durable store.
type nsdRig struct {
	in      *nsdInputs
	pool    *ingest.Pool
	fe      *ingest.Frontend
	sched   *downlink.Scheduler
	tracker *ingest.Tracker
	realloc *ingest.Reallocator
	store   *statestore.Store
	dir     string
	psc     ingest.ParseScratch
	fcnt    map[uint32]uint32
	// What the control loop did this pass; identical in every pass.
	deltas             []*scenario.Delta
	frames, encodeErrs int
	blocked, dispatch  int
}

// newRig builds and starts a daemon. With shardTr set, each shard's
// Tracker.Observe calls are traced into shardTr[shard], which only that
// shard server's lock ever guards.
func newRig(in *nsdInputs, dir string, shardTr []*tracer) (*nsdRig, error) {
	rg := &nsdRig{in: in, dir: dir, fcnt: make(map[uint32]uint32)}
	rg.tracker = ingest.NewTracker(0)
	rg.sched = downlink.NewScheduler(downlink.Config{
		RX1DelayS:  downlink.DefaultRX1DelayS,
		RX2FreqMHz: downlink.DefaultRX2FreqMHz,
		RX2Datr:    downlink.DefaultRX2Datr,
		CodingRate: in.p.CodingRate,
		DutyCycle:  downlink.DefaultDutyCycle,
	})
	rg.fe = ingest.NewFrontend(ingest.FrontendConfig{
		Plan:       in.p.Plan,
		NoiseDBm:   in.p.NoiseDBm,
		Capacity:   in.p.GatewayCapacity,
		CodingRate: in.p.CodingRate,
	})
	onDelivery := func(_ int, del netserver.Delivery) { rg.tracker.Observe(del) }
	if shardTr != nil {
		onDelivery = func(k int, del netserver.Delivery) {
			t := shardTr[k]
			t.begin(spTrackerObserve, int64(del.DevAddr)<<32|int64(del.FCnt))
			rg.tracker.Observe(del)
			t.end(1)
		}
	}
	rg.pool = ingest.NewPool(in.devices, ingest.PoolConfig{
		Shards:       nsdShards,
		QueueDepth:   nsdQueueDepth,
		DedupWindowS: nsdDedupWindowS,
		RetainCap:    nsdRetainCap,
		OnDelivery:   onDelivery,
	})
	inc, err := alloc.NewIncremental(in.net, in.p, in.a, alloc.Options{})
	if err != nil {
		return nil, err
	}
	rg.realloc = ingest.NewReallocator(inc, rg.tracker, nsdReallocConfig)
	if rg.store, err = statestore.Open(dir, statestore.Options{}); err != nil {
		return nil, err
	}
	rg.pool.Start()
	return rg, nil
}

// datagram runs one datagram through the reader path in udpLoop's order:
// decode, RF accounting, payload, downlink context, shard dispatch. It
// returns the last frame's PHY payload for the traced run's probes.
func (rg *nsdRig) datagram(buf []byte, now float64, tr *tracer, op int64) ([]byte, error) {
	tr.begin(spDecode, op)
	pkt, err := ingest.DecodePacketInto(buf, &rg.psc)
	tr.end(1)
	if err != nil {
		return nil, err
	}
	if pkt.Kind != ingest.PushData {
		return nil, fmt.Errorf("datagram kind %#02x, want PUSH_DATA", pkt.Kind)
	}
	gw := gatewayOf(pkt.EUI)
	var last []byte
	for i := range pkt.RXPK {
		rx := &pkt.RXPK[i]
		if rx.Modu != "" && rx.Modu != "LORA" {
			continue
		}
		tr.begin(spObserve, op)
		_, ok := rg.fe.Observe(gw, rx, now)
		tr.end(1)
		if !ok {
			return nil, fmt.Errorf("frontend rejected datarate %q", rx.Datr)
		}
		if rx.Stat < 0 {
			continue
		}
		tr.begin(spPayload, op)
		phy, err := rx.Payload()
		tr.end(1)
		if err != nil {
			return nil, err
		}
		if len(phy) < lorawan.FrameOverheadBytes {
			return nil, fmt.Errorf("runt frame of %d bytes", len(phy))
		}
		devAddr := devAddrOf(phy)
		tr.begin(spObserveUplink, op)
		f := rg.sched.ObserveUplink(downlink.Uplink{
			DevAddr: devAddr,
			Gateway: gw,
			EUI:     pkt.EUI,
			Tmst:    rx.Tmst,
			FreqMHz: rx.Freq,
			Datr:    rx.Datr,
			AtS:     now,
		}, now)
		tr.end(1)
		if f != nil {
			rg.frames++
		}
		if tr != nil {
			rg.dispatch++
			if rg.pool.ShardDepths()[ingest.ShardOf(devAddr, nsdShards)] >= nsdQueueDepth {
				rg.blocked++
			}
		}
		tr.begin(spDispatch, op)
		rg.pool.Dispatch(netserver.Uplink{
			Gateway:     gw,
			ReceivedAtS: now,
			RSSIdBm:     rx.RSSI,
			SNRdB:       rx.LSNR,
			PHYPayload:  phy,
		})
		tr.end(1)
		last = phy
	}
	return last, nil
}

// control is one re-allocation tick at server time atS: drain the pool,
// flush the dedup windows that closed by each shard's clock (so every
// pass's Step sees the same tracker state), run the control loop, make
// its delta durable, then queue the LinkADRReq downlinks.
func (rg *nsdRig) control(atS float64, tr *tracer, op int64) error {
	tr.begin(spControl, op)
	defer tr.end(1)
	tr.begin(spDrain, op)
	rg.pool.Drain()
	tr.end(1)
	tr.begin(spFlush, op)
	rg.pool.FlushExpiredVirtual()
	tr.end(1)
	tr.begin(spStep, op)
	delta, err := rg.realloc.Step(atS)
	tr.end(1)
	if err != nil || delta == nil {
		return err
	}
	tr.begin(spAppendSync, op)
	_, err = rg.store.AppendSync(delta, atS)
	tr.end(1)
	if err != nil {
		return err
	}
	rg.deltas = append(rg.deltas, delta)
	for _, c := range delta.Changes {
		tr.begin(spEnqueue, op)
		rg.enqueue(c, atS)
		tr.end(1)
	}
	return nil
}

// enqueue encodes one reassignment as a LinkADRReq downlink and hands it
// to the scheduler, as eflora-nsd's queueDownlinks does.
func (rg *nsdRig) enqueue(c scenario.DeltaChange, atS float64) {
	dev := rg.in.devices[c.Device]
	fcnt := rg.fcnt[dev.DevAddr]
	rg.fcnt[dev.DevAddr] = fcnt + 1
	dr, err := lorawan.DataRateForSF(lora.SF(c.SF))
	if err != nil {
		rg.encodeErrs++
		return
	}
	tpIdx, ok := rg.in.p.Plan.TxPowerIndex(c.TPdBm)
	if !ok {
		rg.encodeErrs++
		return
	}
	cmd, err := lorawan.LinkADRReq{DataRate: dr, TXPower: uint8(tpIdx), Channel: c.Channel}.Encode()
	if err != nil {
		rg.encodeErrs++
		return
	}
	phy, err := lorawan.EncodeDownlink(lorawan.Frame{
		MType:   lorawan.UnconfirmedDataDown,
		DevAddr: dev.DevAddr,
		ADR:     true,
		FCnt:    fcnt,
		FPort:   0,
		Payload: cmd,
	}, dev.Keys)
	if err != nil {
		rg.encodeErrs++
		return
	}
	rg.realloc.NoteCommandSent(dev.DevAddr)
	if f := rg.sched.Enqueue(dev.DevAddr, phy, atS); f != nil {
		rg.frames++
	}
}

// passOutcome is what one pass must reproduce exactly in every other pass
// of the run.
type passOutcome struct {
	counters           netserver.Counters
	rf                 ingest.FrontendCounters
	deltas             []*scenario.Delta
	frames, encodeErrs int
}

// finish stops the rig and checks its outputs: the pool's accounting
// equals the replay's analytical expectation, and a reopened store
// recovers exactly the deltas the control loop appended.
func (rg *nsdRig) finish() (passOutcome, []error) {
	out := passOutcome{
		counters:   rg.pool.Counters(),
		rf:         rg.fe.Counters(),
		deltas:     rg.deltas,
		frames:     rg.frames,
		encodeErrs: rg.encodeErrs,
	}
	var errs []error
	if out.counters != rg.in.expected {
		errs = append(errs, fmt.Errorf("pool counters %+v != replay expectation %+v", out.counters, rg.in.expected))
	}
	rg.pool.Close()
	if err := rg.store.Close(); err != nil {
		errs = append(errs, fmt.Errorf("store close: %w", err))
	}
	if err := checkRecovered(rg.dir, rg.deltas); err != nil {
		errs = append(errs, err)
	}
	if err := os.RemoveAll(rg.dir); err != nil {
		errs = append(errs, err)
	}
	return out, errs
}

func checkRecovered(dir string, want []*scenario.Delta) error {
	s, err := statestore.Open(dir, statestore.Options{})
	if err != nil {
		return fmt.Errorf("reopen store: %w", err)
	}
	defer s.Close()
	rec, err := s.Recover()
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if rec.Snapshot != nil || len(rec.Tail) != len(want) {
		return fmt.Errorf("recovered %d WAL records (snapshot %v), appended %d", len(rec.Tail), rec.Snapshot != nil, len(want))
	}
	for i, t := range rec.Tail {
		w := want[i]
		if t.Seq != uint64(i+1) || t.Delta.Version != w.Version || t.Delta.AtS != w.AtS || t.Delta.Comment != w.Comment ||
			!slices.Equal(t.Delta.Changes, w.Changes) || !slices.Equal(t.Delta.Resets, w.Resets) {
			return fmt.Errorf("recovered WAL record %d differs from the appended delta", i+1)
		}
	}
	return nil
}

func runNSDLive(e *env, sz nsdSize, r *result) error {
	start := time.Now()
	in, err := generateNSD(e.seed, sz)
	if err != nil {
		return err
	}
	n := in.dg.len()
	r.note("generator: %.4f s for %d datagrams (%d bytes) from %d devices x %d packets (not gated)",
		time.Since(start).Seconds(), n, len(in.dg.arena), sz.devices, sz.packets)
	if err := startPeakRSS(); err != nil {
		r.note("peak RSS: %v; the peak includes generation", err)
	}

	var tr *tracer
	var shardTr []*tracer
	if e.trace {
		tr = newTracer("main", start, 100000)
		shardTr = make([]*tracer, nsdShards)
		for k := range shardTr {
			shardTr[k] = newTracer(fmt.Sprintf("shard%d", k), start, 10000)
		}
	}
	var (
		setups               []float64
		setupWall            time.Duration
		allocs               uint64
		timed, elapsed       time.Duration
		cpuPerOp             []float64
		ops, passes, tpasses int
		ref                  *passOutcome
		queueP50, dedup, rej float64
		moves, frames        float64
		decodeAllocs         float64
		blocked, dispatched  int
	)
	lat, tlat := newLatHist(), newLatHist()
	stat0 := readCPUStat()
	// A traced run makes at least one traced pass.
	for pass := 0; pass == 0 || (e.trace && pass == 1) || elapsed.Seconds() < e.seconds; pass++ {
		// Traced runs alternate untraced and traced passes over the same
		// trace, so the overhead compares like with like.
		traced := e.trace && pass%2 == 1
		var ptr *tracer
		var pshard []*tracer
		if traced {
			ptr, pshard = tr, shardTr
		}
		opBase := int64(pass) << 32

		if pass > 0 {
			// Return the previous pass's daemon, so the peak is one pass's.
			debug.FreeOSMemory()
		}
		// Set-up: construct the daemon, ingest the warm-up block up to the
		// first re-allocation tick, and run that tick, which builds the
		// allocator's evaluator.
		c0, t0 := cpuTime(), time.Now()
		rg, err := newRig(in, filepath.Join(e.workDir, fmt.Sprintf("wal-%d-%d", os.Getpid(), pass)), pshard)
		if err != nil {
			return err
		}
		clock, nextTick := 0.0, nsdReallocEveryS
		i := 0
		for ; i < n; i++ {
			clock = max(clock, in.dg.atS[i])
			if clock >= nextTick {
				break
			}
			r.attempted++
			if _, err := rg.datagram(in.dg.get(i), clock, nil, 0); err != nil {
				r.fail("nsd-live: datagram %d: %v", i, err)
			}
		}
		if err := rg.control(nextTick, nil, 0); err != nil {
			r.fail("nsd-live: control tick at %gs: %v", nextTick, err)
		}
		nextTick += nsdReallocEveryS
		setups = append(setups, (cpuTime() - c0).Seconds())
		setupWall += time.Since(t0)

		// Timed segment: the rest of the trace, with the control loop on
		// every tick and the final drain and flush.
		warm := i
		m0 := uint64(0)
		if !traced {
			m0 = mallocs()
		}
		c0, t1 := cpuTime(), time.Now()
		for ; i < n; i++ {
			clock = max(clock, in.dg.atS[i])
			for clock >= nextTick {
				if err := rg.control(nextTick, ptr, opBase|int64(1)<<31|int64(nextTick)); err != nil {
					r.fail("nsd-live: control tick at %gs: %v", nextTick, err)
				}
				nextTick += nsdReallocEveryS
			}
			if i&nsdFlushMask == nsdFlushMask {
				ptr.begin(spFlush, opBase|int64(i))
				rg.pool.FlushExpiredVirtual()
				ptr.end(1)
			}
			op := opBase | int64(i)
			r.attempted++
			d0 := time.Now()
			ptr.begin(spDatagram, op)
			phy, err := rg.datagram(in.dg.get(i), clock, ptr, op)
			ptr.end(1)
			d := int64(time.Since(d0))
			if err != nil {
				r.fail("nsd-live: datagram %d: %v", i, err)
				continue
			}
			if !traced {
				lat.add(d)
				continue
			}
			tlat.add(d)
			dev := in.devices[devAddrOf(phy)-1]
			ptr.begin(spLoRaWANDecode, op)
			_, err = lorawan.Decode(phy, dev.Keys, 0)
			ptr.end(1)
			if err != nil {
				r.fail("nsd-live: lorawan.Decode of datagram %d: %v", i, err)
			}
		}
		rg.pool.Drain()
		rg.pool.Flush()
		seg, segCPU := time.Since(t1), cpuTime()-c0
		elapsed += seg
		if !traced {
			allocs += mallocs() - m0
			timed += seg
			cpuPerOp = append(cpuPerOp, ms(float64(segCPU))/float64(n-warm))
			ops += n - warm
			passes++
		}

		if traced {
			tpasses++
			if q, ok := rg.pool.LatencyQuantile(0.5); ok {
				queueP50 += float64(q)
			}
			c := rg.pool.Counters()
			dedup += float64(c.Duplicates) / float64(c.Uplinks)
			rej += float64(c.Rejected)
			blocked += rg.blocked
			dispatched += rg.dispatch
			// Allocations per decode, counted while the pool is idle.
			m0 := mallocs()
			for j := 0; j < 1024; j++ {
				if _, err := ingest.DecodePacketInto(in.dg.get(j%n), &rg.psc); err != nil {
					r.fail("nsd-live: decode probe: %v", err)
				}
			}
			decodeAllocs += float64(mallocs()-m0) / 1024
			if err := probeNSDModel(ptr, opBase, in, rg.realloc.Allocation(), sz.driftDevices); err != nil {
				r.fail("nsd-live: model probe: %v", err)
			}
		}
		out, errs := rg.finish()
		for _, err := range errs {
			r.attempted++
			r.fail("nsd-live: pass %d: %v", pass, err)
		}
		for _, d := range out.deltas {
			moves += float64(len(d.Changes))
		}
		frames += float64(out.frames)
		if ref == nil {
			ref = &out
		} else if !reflect.DeepEqual(out, *ref) {
			r.attempted++
			r.fail("nsd-live: pass %d's control loop, counters or downlinks differ from pass 0's", pass)
		}
	}
	steal := stealPct(stat0, readCPUStat())
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}

	p50 := lat.quantile(0.5)
	r.e2e["cpu_ms_per_op"] = measured{median(cpuPerOp), len(cpuPerOp)}
	r.e2e["allocs_per_op"] = measured{float64(allocs) / float64(ops), ops}
	r.e2e["peak_rss_mb"] = measured{peak, 1}
	r.e2e["setup_s"] = measured{median(setups), len(setups)}
	r.wall["latency_p50_ms"] = measured{ms(p50), lat.n}
	r.wall["throughput_per_s"] = measured{float64(ops) / timed.Seconds(), ops}
	p99 := measured{ms(lat.quantile(0.99)), lat.n}
	r.note("setup: %d passes, %.4f s wall in all", len(setups), setupWall.Seconds())
	r.note("workload: %d datagrams per pass, %d untraced passes, %d traced", n, passes, tpasses)
	r.note("tail: reader-path p99 %.4g ms (n=%d, not gated)", p99.value, p99.n)
	r.note("steal: %.3f%% of machine CPU over the run (not gated)", steal)

	if e.trace {
		for _, t := range shardTr {
			tr.merge(t)
		}
		tp := float64(tpasses)
		us := func(name spanName) measured { return scaled(tr.meanNs(name), 1e3) }
		r.layers["model.gains_ms"] = scaled(tr.meanNs(spGains), 1e6)
		r.layers["model.evaluator_build_ms"] = scaled(tr.meanNs(spNewEvaluator), 1e6)
		r.layers["model.min_ee_if_ns"] = tr.nsPerItem(spMinEEIfAbove)
		r.layers["model.set_device_us"] = scaled(tr.nsPerItem(spSetDevice), 1e3)
		r.layers["ingest.decode_us"] = us(spDecode)
		r.layers["ingest.decode_allocs"] = measured{decodeAllocs / tp, tpasses * 1024}
		r.layers["ingest.observe_us"] = us(spObserve)
		r.layers["ingest.payload_us"] = us(spPayload)
		r.layers["downlink.observe_uplink_us"] = us(spObserveUplink)
		r.layers["ingest.dispatch_us"] = us(spDispatch)
		r.layers["ingest.dispatch_blocked_ratio"] = measured{float64(blocked) / float64(dispatched), dispatched}
		r.layers["ingest.queue_p50_us"] = measured{queueP50 / tp / 1e3, tpasses}
		r.layers["lorawan.decode_us"] = us(spLoRaWANDecode)
		r.layers["ingest.tracker_observe_us"] = us(spTrackerObserve)
		r.layers["netserver.dedup_ratio"] = measured{dedup / tp, tpasses}
		r.layers["netserver.rejected"] = measured{rej / tp, tpasses}
		r.layers["ingest.realloc_step_ms"] = scaled(tr.meanNs(spStep), 1e6)
		r.layers["ingest.realloc_moves"] = measured{moves / float64(passes+tpasses), passes + tpasses}
		r.layers["statestore.append_sync_us"] = us(spAppendSync)
		r.layers["downlink.enqueue_us"] = us(spEnqueue)
		r.layers["downlink.frames_emitted"] = measured{frames / float64(passes+tpasses), passes + tpasses}
		r.layers["ingest.latency_p99_ms"] = p99
		r.layers["trace.overhead_pct"] = measured{100 * (tlat.quantile(0.5)/p50 - 1), tlat.n}
		r.layers["host.steal_pct"] = measured{steal, 1}
		// The layer timings must add up: the reader path's child spans
		// cover the datagram span but for the glue between the calls.
		cov := spanCoverage(tr, spDatagram)
		r.note("trace: reader-path child spans cover %.2f%% of the datagram spans (n=%d, at least %.0f%% required)",
			100*cov, tr.agg[spDatagram].count, 100*minReaderCoverage)
		r.attempted++
		if cov < minReaderCoverage {
			r.fail("nsd-live: reader-path spans cover %.2f%% of the datagram spans, below %.0f%%", 100*cov, 100*minReaderCoverage)
		}
		if err := saveSpans(e, r, "nsd-live", append([]*tracer{tr}, shardTr...)...); err != nil {
			return err
		}
	}
	return nil
}

// spanCoverage is the share of name's span time its child spans cover.
func spanCoverage(tr *tracer, name spanName) float64 {
	a := tr.agg[name]
	if a.totalNs == 0 {
		return 0
	}
	return float64(a.totalNs-a.selfNs) / float64(a.totalNs)
}

// probeNSDModel times the model layer the control loop runs on, on the
// pass's final allocation: a cold model.Gains, model.NewEvaluator (what
// the first Step builds), and MinEEIfAbove/SetDevice over the drifting
// devices, the ones ReassignDevice scans.
func probeNSDModel(tr *tracer, op int64, in *nsdInputs, a model.Allocation, drift int) error {
	net := cloneNetwork(in.net)
	tr.begin(spGains, op)
	gains := model.Gains(net, in.p)
	tr.end(1)
	tr.begin(spNewEvaluator, op)
	ev, err := model.NewEvaluator(net, in.p, a, model.ModeExact)
	tr.end(1)
	if err != nil {
		return err
	}
	return probeEvaluator(tr, op, in.p, gains, ev, allDevices(min(drift, net.N())))
}
