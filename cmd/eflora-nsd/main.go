// Command eflora-nsd is the live network-server daemon: it ingests
// gateway uplinks over the Semtech UDP packet-forwarder protocol, fans
// them across a DevAddr-sharded pool of network servers, flushes dedup
// windows on the clock, tracks rolling per-device SNR/PRR statistics,
// and periodically hands drifting devices to the incremental allocator —
// emitting the resulting (SF, TP, channel) moves as scenario-file deltas.
// Operational counters are served on HTTP /metrics (+/healthz).
//
// Usage (live):
//
//	eflora-nsd -scenario net.json -listen :1700 -http :8080 -deltas deltas.jsonl
//
// Usage (load generator / self-benchmark):
//
//	eflora-nsd -replay -scenario net.json -packets 20 -shards 8
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"eflora/internal/alloc"
	"eflora/internal/core"
	"eflora/internal/downlink"
	"eflora/internal/engine"
	"eflora/internal/ingest"
	"eflora/internal/lora"
	"eflora/internal/lorawan"
	"eflora/internal/model"
	"eflora/internal/netserver"
	"eflora/internal/scenario"
	"eflora/internal/statestore"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "eflora-nsd:", err)
		os.Exit(1)
	}
}

type config struct {
	scenarioPath string
	listenAddr   string
	httpAddr     string
	shards       int
	queueDepth   int
	dedupWindowS float64
	retainCap    int
	flushEvery   time.Duration
	reallocEvery time.Duration
	snrMarginDB  float64
	minPRR       float64
	minFrames    int
	deltasPath   string
	duration     time.Duration

	// stateDir enables the durable-state subsystem; a snapshotInterval
	// <= 0 runs it WAL-only, with no periodic snapshots.
	stateDir         string
	snapshotInterval time.Duration
	walSegmentBytes  int64

	rx1DelayS  float64
	rx2FreqMHz float64
	rx2Datr    string
	routeTTLS  float64
	dutyCycle  float64

	replay       bool
	packets      int
	seed         uint64
	allocator    string
	driftDevices int
	driftSNRdB   float64
}

// defaultSnapshotInterval is the -snapshot-interval default.
const defaultSnapshotInterval = 30 * time.Second

func run(args []string, out io.Writer) error {
	cfg, err := parseArgs(args)
	if err != nil {
		return err
	}
	netw, a, err := loadScenario(cfg)
	if err != nil {
		return err
	}
	if cfg.replay {
		return runReplay(cfg, netw, a, out)
	}
	d, err := newDaemon(cfg, netw, a)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if cfg.duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.duration)
		defer cancel()
	}
	fmt.Fprintf(out, "eflora-nsd: %d devices, %d shards, udp %s", netw.Net.N(), cfg.shards, d.UDPAddr())
	if cfg.httpAddr != "" {
		fmt.Fprintf(out, ", http %s", d.HTTPAddr())
	}
	fmt.Fprintln(out)
	err = d.Serve(ctx)
	d.writeSummary(out)
	return err
}

// parseArgs resolves the flag set into a validated config.
func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("eflora-nsd", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.scenarioPath, "scenario", "", "scenario file with the deployment (and ideally an allocation)")
	fs.StringVar(&cfg.listenAddr, "listen", ":1700", "UDP address for the Semtech packet-forwarder protocol")
	fs.StringVar(&cfg.httpAddr, "http", ":8080", "HTTP address for /metrics and /healthz (empty = disabled)")
	fs.IntVar(&cfg.shards, "shards", 8, "DevAddr shards (independent network-server locks)")
	fs.IntVar(&cfg.queueDepth, "queue", 1024, "per-shard inbox depth; a full inbox backpressures the reader")
	fs.Float64Var(&cfg.dedupWindowS, "dedup-window", 0.2, "dedup window in seconds")
	fs.IntVar(&cfg.retainCap, "retain", 4096, "per-shard delivery backlog cap (ring); 0 = unbounded")
	fs.DurationVar(&cfg.flushEvery, "flush-every", 100*time.Millisecond, "clock-driven dedup flush interval")
	fs.DurationVar(&cfg.reallocEvery, "realloc-every", 30*time.Second, "online re-allocation interval (0 = disabled)")
	fs.Float64Var(&cfg.snrMarginDB, "snr-margin", 1, "SNR headroom above the SF demodulation floor before a device counts as drifting")
	fs.Float64Var(&cfg.minPRR, "min-prr", 0.7, "packet-reception-ratio floor before a device counts as drifting")
	fs.IntVar(&cfg.minFrames, "min-frames", 8, "deliveries required before trusting a device's statistics")
	fs.StringVar(&cfg.deltasPath, "deltas", "", "append re-allocation deltas to this JSONL file")
	fs.DurationVar(&cfg.duration, "duration", 0, "stop the live daemon after this long (0 = run until signal)")
	fs.StringVar(&cfg.stateDir, "state-dir", "", "durable-state directory: snapshots + delta WAL; recovered on startup (empty = stateless)")
	fs.DurationVar(&cfg.snapshotInterval, "snapshot-interval", defaultSnapshotInterval, "periodic snapshot cadence; 0 disables periodic snapshots (WAL-only)")
	fs.Int64Var(&cfg.walSegmentBytes, "wal-segment-bytes", statestore.DefaultSegmentBytes, "WAL segment size-rotation threshold in bytes")
	fs.Float64Var(&cfg.rx1DelayS, "rx1-delay", downlink.DefaultRX1DelayS, "Class-A RX1 window delay after the uplink in seconds (RX2 opens one second later)")
	fs.Float64Var(&cfg.rx2FreqMHz, "rx2-freq", downlink.DefaultRX2FreqMHz, "RX2 window frequency in MHz")
	fs.StringVar(&cfg.rx2Datr, "rx2-datr", downlink.DefaultRX2Datr, "RX2 window data rate identifier")
	fs.Float64Var(&cfg.routeTTLS, "route-ttl", downlink.DefaultRouteTTLS, "seconds of PULL_DATA silence before a gateway's downlink route is evicted")
	fs.Float64Var(&cfg.dutyCycle, "duty-cycle", downlink.DefaultDutyCycle, "downlink duty-cycle budget per frequency (ETSI off-period rule)")
	fs.BoolVar(&cfg.replay, "replay", false, "load-generator mode: synthesize gateway traffic from the scenario + simulator and measure ingest throughput")
	fs.IntVar(&cfg.packets, "packets", 20, "with -replay: simulated reporting periods per device")
	fs.Uint64Var(&cfg.seed, "seed", 1, "with -replay: simulation / traffic seed")
	fs.StringVar(&cfg.allocator, "allocator", "eflora", "allocator used when the scenario file carries no allocation")
	fs.IntVar(&cfg.driftDevices, "drift-devices", 0, "with -replay: degrade the reported SNR of this many devices so the re-allocator moves them")
	fs.Float64Var(&cfg.driftSNRdB, "drift-snr", 10, "with -replay: dB of SNR degradation injected per drifting device")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.scenarioPath == "" {
		return cfg, fmt.Errorf("-scenario is required")
	}
	if cfg.shards <= 0 {
		return cfg, fmt.Errorf("-shards must be positive")
	}
	if cfg.flushEvery <= 0 {
		return cfg, fmt.Errorf("-flush-every must be positive")
	}
	if cfg.replay && cfg.stateDir != "" {
		return cfg, fmt.Errorf("-replay keeps no durable state; drop -state-dir")
	}
	return cfg, nil
}

// loadScenario reads the deployment and its allocation, computing one
// with the configured allocator when the file has none.
func loadScenario(cfg config) (*core.Network, model.Allocation, error) {
	f, err := os.Open(cfg.scenarioPath)
	if err != nil {
		return nil, model.Allocation{}, err
	}
	sc, err := scenario.Read(f)
	f.Close()
	if err != nil {
		return nil, model.Allocation{}, err
	}
	netw := &core.Network{Net: sc.Network(), Params: model.DefaultParams(), Seed: cfg.seed}
	a, ok := sc.AllocationOf()
	if !ok {
		if a, err = netw.Allocate(cfg.allocator, alloc.Options{}); err != nil {
			return nil, model.Allocation{}, err
		}
	}
	return netw, a, nil
}

// server is the daemon's socket-free core: the sharded pool and the
// rolling tracker it feeds, the re-allocator, the receiver frontend, the
// downlink scheduler and frame counters, the durable-state store and the
// -deltas file. Live mode puts the UDP reader and the HTTP listener on
// top of it (daemon); -replay feeds it a synthesized trace instead. Its
// control-path methods take the server time as nowS: seconds since start
// in live mode, trace time in replay.
type server struct {
	cfg      config
	start    time.Time
	pool     *ingest.Pool
	tracker  *ingest.Tracker
	realloc  *ingest.Reallocator // nil when -realloc-every is 0
	frontend *ingest.Frontend

	// routes maps gateway EUIs to their PULL_DATA downlink addresses;
	// sched turns reassignments into Class-A PULL_RESP frames.
	routes  *downlink.Routes
	sched   *downlink.Scheduler
	devices []netserver.Device
	plan    lora.Plan

	// fcntDown is the per-device downlink frame counter.
	fcntMu   sync.Mutex
	fcntDown map[uint32]uint32

	// store is the durable-state subsystem (nil when -state-dir is
	// unset); initAlloc is the allocation the server booted with, the
	// fallback snapshot source when online re-allocation is disabled.
	store     *statestore.Store
	initAlloc model.Allocation
	// dlEncodeErr counts reassignments that could not be encoded as a
	// LinkADRReq (e.g. power level outside the MAC command's range).
	dlEncodeErr atomic.Int64
	// deltaFile receives every control-loop delta (nil without -deltas).
	deltaFile *os.File

	// gateways assigns each gateway EUI a dense index on first sight;
	// parseErr counts datagrams and payloads that failed to decode.
	gateways sync.Map // [8]byte EUI -> int index
	gwCount  atomic.Int64
	parseErr atomic.Int64
}

// newServer assembles the server and recovers its durable state. With
// -state-dir set, the newest snapshot (if any) seeds the allocation, the
// tracker, the frame counters and the pool, and the WAL tail is applied
// on top of it, or on top of the boot allocation a on a cold start.
func newServer(cfg config, netw *core.Network, a model.Allocation) (*server, error) {
	n := netw.Net.N()
	s := &server{
		cfg:      cfg,
		start:    time.Now(),
		tracker:  ingest.NewTracker(0),
		routes:   downlink.NewRoutes(cfg.routeTTLS),
		devices:  ingest.ProvisionDevices(n),
		plan:     netw.Params.Plan,
		fcntDown: make(map[uint32]uint32),
	}
	// Recover before anything is built, so the recovered allocation seeds
	// the re-allocator and the recovered dedup state seeds the pool.
	var snap *statestore.State
	var recoveredMoves uint64
	if cfg.stateDir != "" {
		store, err := statestore.Open(cfg.stateDir, statestore.Options{SegmentBytes: cfg.walSegmentBytes})
		if err != nil {
			return nil, err
		}
		s.store = store
		rec, err := store.Recover()
		if err != nil {
			return nil, err
		}
		if snap = rec.Snapshot; snap != nil {
			if len(snap.Alloc.SF) != n {
				return nil, fmt.Errorf("state-dir snapshot covers %d devices, scenario has %d", len(snap.Alloc.SF), n)
			}
			a = snap.Alloc
			s.tracker.ImportState(snap.Tracker)
			recoveredMoves = snap.Reassigned
			for _, f := range snap.FCntDown {
				s.fcntDown[f.DevAddr] = f.FCnt
			}
		}
		// The WAL tail carries every control-loop step after the snapshot
		// (after boot on a cold start): replaying it makes the allocation,
		// the move count and the frame counters exact; per-device rolling
		// statistics are as-of-last-snapshot plus the recorded resets (the
		// documented recovery invariant).
		a = a.Clone()
		recoveredMoves += s.applyWALTail(rec.Tail, &a)
	}
	s.initAlloc = a.Clone()
	s.sched = downlink.NewScheduler(downlink.Config{
		RX1DelayS:  cfg.rx1DelayS,
		RX2FreqMHz: cfg.rx2FreqMHz,
		RX2Datr:    cfg.rx2Datr,
		CodingRate: netw.Params.CodingRate,
		DutyCycle:  cfg.dutyCycle,
	})
	// The receiver frontend runs the same engine.Gateway physics as the
	// simulators over the live RXPK stream, exposing RF-contention
	// counters the dedup/delivery pipeline cannot see.
	s.frontend = ingest.NewFrontend(ingest.FrontendConfig{
		Plan:       netw.Params.Plan,
		NoiseDBm:   netw.Params.NoiseDBm,
		Capacity:   netw.Params.GatewayCapacity,
		CodingRate: netw.Params.CodingRate,
	})
	s.pool = ingest.NewPool(s.devices, ingest.PoolConfig{
		Shards:       cfg.shards,
		QueueDepth:   cfg.queueDepth,
		DedupWindowS: cfg.dedupWindowS,
		RetainCap:    cfg.retainCap,
		OnDelivery: func(_ int, del netserver.Delivery) {
			s.tracker.Observe(del)
			if del.FPort == 0 {
				s.onMACUplink(del)
			}
		},
	})
	if snap != nil {
		if err := s.pool.ImportState(snap.Pool); err != nil {
			return nil, fmt.Errorf("restore pool (re-run with the shard count the state was written at, or clear -state-dir): %w", err)
		}
	}
	if cfg.reallocEvery > 0 {
		inc, err := alloc.NewIncremental(netw.Net, netw.Params, a, alloc.Options{})
		if err != nil {
			return nil, err
		}
		s.realloc = ingest.NewReallocator(inc, s.tracker, ingest.ReallocConfig{
			SNRMarginDB: cfg.snrMarginDB,
			MinPRR:      cfg.minPRR,
			MinFrames:   cfg.minFrames,
		})
		s.realloc.RestoreReassigned(int(recoveredMoves))
	}
	if cfg.deltasPath != "" {
		f, err := os.OpenFile(cfg.deltasPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		s.deltaFile = f
	}
	return s, nil
}

// applyWALTail folds recovered WAL records into an allocation, the
// tracker and the downlink frame counters: each record is one
// control-loop step, so its Changes move the allocation, clear the moved
// devices' rolling statistics exactly as Step did live, and advance each
// moved device's FCntDown past the LinkADRReq queueDownlinks issued for
// the move; its Resets clear the kept-but-drifting devices. Returns the
// number of device moves replayed.
func (s *server) applyWALTail(tail []statestore.WALRecord, a *model.Allocation) uint64 {
	var moves uint64
	for _, r := range tail {
		for _, c := range r.Delta.Changes {
			if c.Device < 0 || c.Device >= len(a.SF) {
				continue
			}
			a.SF[c.Device] = lora.SF(c.SF)
			a.TPdBm[c.Device] = c.TPdBm
			a.Channel[c.Device] = c.Channel
			addr := ingest.AddrForIndex(c.Device)
			s.tracker.Reset(addr)
			s.fcntDown[addr]++
			moves++
		}
		for _, i := range r.Delta.Resets {
			s.tracker.Reset(ingest.AddrForIndex(i))
		}
	}
	return moves
}

// daemon is live mode: the server behind the packet-forwarder UDP socket
// and the HTTP listener.
type daemon struct {
	*server
	udp     *net.UDPConn
	httpLis net.Listener
	httpSrv *http.Server
}

func newDaemon(cfg config, netw *core.Network, a model.Allocation) (*daemon, error) {
	s, err := newServer(cfg, netw, a)
	if err != nil {
		return nil, err
	}
	d := &daemon{server: s}
	udpAddr, err := net.ResolveUDPAddr("udp", cfg.listenAddr)
	if err != nil {
		return nil, err
	}
	if d.udp, err = net.ListenUDP("udp", udpAddr); err != nil {
		return nil, err
	}
	if cfg.httpAddr != "" {
		if d.httpLis, d.httpSrv, err = listenHTTP(cfg.httpAddr, s.handleMetrics); err != nil {
			d.udp.Close()
			return nil, err
		}
	}
	return d, nil
}

// UDPAddr and HTTPAddr report the bound addresses (ephemeral-port safe).
func (d *daemon) UDPAddr() string { return d.udp.LocalAddr().String() }
func (d *daemon) HTTPAddr() string {
	if d.httpLis == nil {
		return ""
	}
	return d.httpLis.Addr().String()
}

// nowS is the live server timescale: seconds since start.
func (s *server) nowS() float64 { return time.Since(s.start).Seconds() }

// Serve runs until ctx is done.
func (d *daemon) Serve(ctx context.Context) error {
	d.pool.Start()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); d.udpLoop() }()
	if d.httpSrv != nil {
		wg.Add(1)
		go func() { defer wg.Done(); _ = d.httpSrv.Serve(d.httpLis) }()
	}
	flush := time.NewTicker(d.cfg.flushEvery)
	defer flush.Stop()
	var reallocC <-chan time.Time
	if d.realloc != nil {
		t := time.NewTicker(d.cfg.reallocEvery)
		defer t.Stop()
		reallocC = t.C
	}
	// Periodic snapshots: -snapshot-interval 0 runs WAL-only (final
	// snapshot on shutdown).
	var snapC <-chan time.Time
	if d.store != nil && d.cfg.snapshotInterval > 0 {
		t := time.NewTicker(d.cfg.snapshotInterval)
		defer t.Stop()
		snapC = t.C
	}
	for {
		select {
		case <-ctx.Done():
			d.shutdown()
			wg.Wait()
			return nil
		case <-flush.C:
			now := d.nowS()
			d.pool.FlushExpired(now)
			d.frontend.Advance(now)
			d.routes.Evict(now)
			d.sched.Expire(now)
		case <-reallocC:
			if err := d.step(); err != nil {
				d.shutdown()
				wg.Wait()
				return err
			}
		case <-snapC:
			if err := d.takeSnapshot(d.nowS()); err != nil {
				d.shutdown()
				wg.Wait()
				return err
			}
		}
	}
}

// exportState assembles the server's durable state at server time nowS.
// Each shard is internally consistent; the WAL sequence covers every
// control-loop delta appended so far (appends and snapshots are both
// serialized on the control path).
func (s *server) exportState(nowS float64) *statestore.State {
	a := s.initAlloc
	var reassigned uint64
	if s.realloc != nil {
		a = s.realloc.Allocation()
		reassigned = uint64(s.realloc.Reassigned())
	}
	st := &statestore.State{
		UplinkCount: uint64(s.pool.Counters().Uplinks),
		TakenAtS:    nowS,
		Pool:        s.pool.ExportState(),
		Tracker:     s.tracker.ExportState(),
		Alloc:       a,
		Reassigned:  reassigned,
	}
	if s.store != nil {
		st.Seq = s.store.NextSeq() - 1
	}
	s.fcntMu.Lock()
	st.FCntDown = make([]statestore.FCntDownEntry, 0, len(s.fcntDown))
	for addr, fcnt := range s.fcntDown {
		st.FCntDown = append(st.FCntDown, statestore.FCntDownEntry{DevAddr: addr, FCnt: fcnt})
	}
	s.fcntMu.Unlock()
	sort.Slice(st.FCntDown, func(i, j int) bool { return st.FCntDown[i].DevAddr < st.FCntDown[j].DevAddr })
	return st
}

// takeSnapshot makes the WAL durable, then writes a snapshot covering it.
func (s *server) takeSnapshot(nowS float64) error {
	if err := s.store.Sync(); err != nil {
		return err
	}
	return s.store.WriteSnapshot(s.exportState(nowS))
}

// onMACUplink handles an FPort-0 uplink: the payload is the decrypted MAC
// command stream, which for this daemon means a LinkADRAns acknowledging
// (or rejecting) a queued reassignment.
func (s *server) onMACUplink(del netserver.Delivery) {
	if s.realloc == nil {
		return
	}
	if ans, err := lorawan.ParseLinkADRAns(del.Payload); err == nil {
		s.realloc.NoteAns(del.DevAddr, ans)
	}
}

// step runs one control-loop pass now and transmits the downlinks whose
// RX window is still reachable.
func (d *daemon) step() error {
	_, frames, err := d.reallocStep(d.nowS())
	for _, f := range frames {
		d.sendDownlink(f)
	}
	return err
}

func (d *daemon) shutdown() {
	d.udp.Close()
	if d.httpSrv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_ = d.httpSrv.Shutdown(sctx)
		cancel()
	}
	d.pool.Drain()
	d.pool.Flush()
	d.pool.Close() // stops the shard workers; state export still works
	if d.realloc != nil {
		// Final pass so observed drift is not lost.
		if err := d.step(); err != nil {
			fmt.Fprintln(os.Stderr, "eflora-nsd: final control step:", err)
		}
	}
	// Final snapshot: SIGTERM hands the next process a zero-replay boot.
	if d.store != nil {
		if err := d.takeSnapshot(d.nowS()); err != nil {
			fmt.Fprintln(os.Stderr, "eflora-nsd: final snapshot:", err)
		}
		if err := d.store.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "eflora-nsd: state close:", err)
		}
	}
	if d.deltaFile != nil {
		if err := d.deltaFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "eflora-nsd: deltas close:", err)
		}
	}
}

// reallocStep runs one control-loop pass at server time nowS, appends any
// delta to the WAL and the -deltas file, and queues the matching
// LinkADRReq downlinks so the moved devices actually hear about their new
// assignment. It returns the delta (nil when nothing changed) and the
// frames whose RX window was reachable at once, for the caller to
// transmit. The WAL-first ordering below is what the walorder analyzer
// enforces.
//
//eflora:durable
func (s *server) reallocStep(nowS float64) (*scenario.Delta, []*downlink.Frame, error) {
	delta, err := s.realloc.Step(nowS)
	if err != nil || delta == nil {
		return nil, nil, err
	}
	// WAL first: the delta must be durable before its downlinks go out, or
	// a crash between send and append would leave devices on settings the
	// recovered state does not know about.
	if s.store != nil {
		if _, err := s.store.AppendSync(delta, nowS); err != nil {
			return nil, nil, err
		}
	}
	frames := s.queueDownlinks(delta, nowS)
	if s.deltaFile == nil {
		return delta, frames, nil
	}
	return delta, frames, scenario.AppendDelta(s.deltaFile, delta)
}

// gatewayIndex assigns each gateway EUI a dense index on first sight.
func (s *server) gatewayIndex(eui [8]byte) int {
	if v, ok := s.gateways.Load(eui); ok {
		return v.(int)
	}
	idx := int(s.gwCount.Add(1)) - 1
	if v, loaded := s.gateways.LoadOrStore(eui, idx); loaded {
		return v.(int)
	}
	return idx
}

// udpLoop is the packet-forwarder ingress: decode, ack, dispatch.
func (d *daemon) udpLoop() {
	buf := make([]byte, 65536)
	// One parse scratch for the whole loop: each decoded packet aliases it
	// and is consumed fully before the next read.
	var psc ingest.ParseScratch
	for {
		n, addr, err := d.udp.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		pkt, err := ingest.DecodePacketInto(buf[:n], &psc)
		if err != nil {
			d.parseErr.Add(1)
			continue
		}
		if ack, ok := pkt.Ack(); ok {
			_, _ = d.udp.WriteToUDP(ack, addr)
		}
		switch pkt.Kind {
		case ingest.PullData:
			// The PULL_DATA source address is the only path a PULL_RESP
			// can take back through the forwarder's NAT binding.
			d.gatewayIndex(pkt.EUI)
			d.routes.Update(pkt.EUI, addr, d.nowS())
			continue
		case ingest.TxAck:
			if retry := d.sched.OnTxAck(pkt.EUI, pkt.Token, pkt.TxAckErr, d.nowS()); retry != nil {
				d.sendDownlink(retry)
			}
			continue
		case ingest.PushData:
		default:
			continue
		}
		gw := d.gatewayIndex(pkt.EUI)
		now := d.nowS()
		for i := range pkt.RXPK {
			rx := &pkt.RXPK[i]
			if rx.Modu != "" && rx.Modu != "LORA" {
				continue // FSK traffic
			}
			// Even a CRC-failed frame was RF on the air that occupied a
			// demodulator and interfered, so it feeds the receiver
			// frontend before the pipeline drops it.
			d.frontend.Observe(gw, rx, now)
			if rx.Stat < 0 {
				continue // CRC-failed
			}
			phy, err := rx.Payload()
			if err != nil {
				d.parseErr.Add(1)
				continue
			}
			// The uplink opens the device's Class-A RX windows: record it
			// as the downlink scheduling context, and ride it immediately
			// if a command is waiting.
			if len(phy) >= lorawan.FrameOverheadBytes {
				devAddr := uint32(phy[1]) | uint32(phy[2])<<8 | uint32(phy[3])<<16 | uint32(phy[4])<<24
				if f := d.sched.ObserveUplink(downlink.Uplink{
					DevAddr: devAddr,
					Gateway: gw,
					EUI:     pkt.EUI,
					Tmst:    rx.Tmst,
					FreqMHz: rx.Freq,
					Datr:    rx.Datr,
					AtS:     now,
				}, now); f != nil {
					d.sendDownlink(f)
				}
			}
			d.pool.Dispatch(netserver.Uplink{
				Gateway:     gw,
				ReceivedAtS: now,
				RSSIdBm:     rx.RSSI,
				SNRdB:       rx.LSNR,
				PHYPayload:  phy,
			})
		}
	}
}

// sendDownlink routes one scheduled PULL_RESP to its gateway.
func (d *daemon) sendDownlink(f *downlink.Frame) {
	addr, ok := d.routes.Lookup(f.EUI)
	if !ok {
		d.sched.Unroutable(f.Token)
		return
	}
	_, _ = d.udp.WriteToUDP(f.Datagram, addr)
}

// nextFCntDown issues the device's next downlink frame counter.
func (s *server) nextFCntDown(devAddr uint32) uint32 {
	s.fcntMu.Lock()
	defer s.fcntMu.Unlock()
	fcnt := s.fcntDown[devAddr]
	s.fcntDown[devAddr] = fcnt + 1
	return fcnt
}

// buildLinkADRPhy encodes one reassignment as a LinkADRReq downlink
// frame (FPort 0, encrypted under NwkSKey).
func buildLinkADRPhy(plan lora.Plan, keys lorawan.Keys, devAddr, fcnt uint32, c scenario.DeltaChange) ([]byte, error) {
	dr, err := lorawan.DataRateForSF(lora.SF(c.SF))
	if err != nil {
		return nil, err
	}
	tpIdx, ok := plan.TxPowerIndex(c.TPdBm)
	if !ok {
		return nil, fmt.Errorf("TX power %g dBm is not a level of plan %s", c.TPdBm, plan.Name)
	}
	cmd, err := lorawan.LinkADRReq{DataRate: dr, TXPower: uint8(tpIdx), Channel: c.Channel}.Encode()
	if err != nil {
		return nil, err
	}
	return lorawan.EncodeDownlink(lorawan.Frame{
		MType:   lorawan.UnconfirmedDataDown,
		DevAddr: devAddr,
		ADR:     true,
		FCnt:    fcnt,
		FPort:   0,
		Payload: cmd,
	}, keys)
}

// queueDownlinks turns a re-allocation delta into per-device LinkADRReq
// downlinks, one frame counter per in-range change, and returns the
// frames whose RX window is still reachable at nowS. The rest wait in the
// scheduler for the device's next uplink.
func (s *server) queueDownlinks(delta *scenario.Delta, nowS float64) []*downlink.Frame {
	var frames []*downlink.Frame
	for _, c := range delta.Changes {
		if c.Device < 0 || c.Device >= len(s.devices) {
			continue
		}
		dev := s.devices[c.Device]
		phy, err := buildLinkADRPhy(s.plan, dev.Keys, dev.DevAddr, s.nextFCntDown(dev.DevAddr), c)
		if err != nil {
			s.dlEncodeErr.Add(1)
			continue
		}
		s.realloc.NoteCommandSent(dev.DevAddr)
		if f := s.sched.Enqueue(dev.DevAddr, phy, nowS); f != nil {
			frames = append(frames, f)
		}
	}
	return frames
}

// handleMetrics renders the Prometheus-style text counters.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	c := s.pool.Counters()
	fmt.Fprintf(w, "eflora_nsd_uptime_seconds %.3f\n", s.nowS())
	fmt.Fprintf(w, "eflora_nsd_uplinks_total %d\n", c.Uplinks)
	fmt.Fprintf(w, "eflora_nsd_deliveries_total %d\n", c.Delivered)
	fmt.Fprintf(w, "eflora_nsd_duplicates_total %d\n", c.Duplicates)
	fmt.Fprintf(w, "eflora_nsd_rejected_total %d\n", c.Rejected)
	fmt.Fprintf(w, "eflora_nsd_parse_errors_total %d\n", s.parseErr.Load())
	fmt.Fprintf(w, "eflora_nsd_dedup_hit_rate %s\n", ratio(c.Duplicates, c.Uplinks))
	for _, q := range []float64{0.5, 0.99} {
		if lat, ok := s.pool.LatencyQuantile(q); ok {
			fmt.Fprintf(w, "eflora_nsd_ingest_latency_seconds{quantile=%q} %.9f\n", fmt.Sprintf("%g", q), lat.Seconds())
		}
	}
	fmt.Fprintf(w, "eflora_nsd_gateways %d\n", s.gwCount.Load())
	fmt.Fprintf(w, "eflora_nsd_tracked_devices %d\n", s.tracker.Len())
	fmt.Fprintf(w, "eflora_nsd_realloc_devices_total %d\n", s.reallocated())
	rf := s.frontend.Counters()
	fmt.Fprintf(w, "eflora_nsd_rf_collision_losses_total %d\n", rf.CollisionLosses)
	fmt.Fprintf(w, "eflora_nsd_rf_capacity_drops_total %d\n", rf.CapacityDrops)
	fmt.Fprintf(w, "eflora_nsd_rf_sensitivity_misses_total %d\n", rf.SensitivityMisses)
	fmt.Fprintf(w, "eflora_nsd_rf_unknown_channel_total %d\n", rf.UnknownChannel)
	fmt.Fprintf(w, "eflora_nsd_rf_bad_datr_total %d\n", rf.BadDatr)
	dl := s.sched.Counters()
	fmt.Fprintf(w, "eflora_nsd_downlink_queued_total %d\n", dl.Queued)
	fmt.Fprintf(w, "eflora_nsd_downlink_sent_total %d\n", dl.Sent)
	fmt.Fprintf(w, "eflora_nsd_downlink_acked_total %d\n", dl.Acked)
	fmt.Fprintf(w, "eflora_nsd_downlink_failed_total %d\n", dl.Failed)
	fmt.Fprintf(w, "eflora_nsd_downlink_retried_total %d\n", dl.Retried)
	fmt.Fprintf(w, "eflora_nsd_downlink_expired_total %d\n", dl.Expired)
	fmt.Fprintf(w, "eflora_nsd_downlink_noroute_total %d\n", dl.NoRoute)
	fmt.Fprintf(w, "eflora_nsd_downlink_dutyblocked_total %d\n", dl.DutyBlocked)
	fmt.Fprintf(w, "eflora_nsd_downlink_encode_errors_total %d\n", s.dlEncodeErr.Load())
	fmt.Fprintf(w, "eflora_nsd_gateway_routes %d\n", s.routes.Len())
	for _, e := range s.sched.AckErrors() {
		fmt.Fprintf(w, "eflora_nsd_txack_total{gateway=\"%x\",error=%q} %d\n", e.EUI, e.Error, e.Count)
	}
	if s.realloc != nil {
		ans := s.realloc.Ans()
		fmt.Fprintf(w, "eflora_nsd_linkadr_sent_total %d\n", ans.Sent)
		fmt.Fprintf(w, "eflora_nsd_linkadr_applied_total %d\n", ans.Applied)
		fmt.Fprintf(w, "eflora_nsd_linkadr_rejected_total %d\n", ans.Rejected)
		fmt.Fprintf(w, "eflora_nsd_linkadr_unsolicited_total %d\n", ans.Unsolicited)
	}
	if s.store != nil {
		ss := s.store.Metrics()
		fmt.Fprintf(w, "eflora_nsd_state_wal_seq %d\n", ss.WALSeq)
		fmt.Fprintf(w, "eflora_nsd_state_wal_appends_total %d\n", ss.WALAppends)
		fmt.Fprintf(w, "eflora_nsd_state_wal_bytes_total %d\n", ss.WALBytes)
		fmt.Fprintf(w, "eflora_nsd_state_wal_fsyncs_total %d\n", ss.WALFsyncs)
		fmt.Fprintf(w, "eflora_nsd_state_wal_lag_records %d\n", ss.WALLagRecords)
		for _, q := range []float64{0.5, 0.99} {
			if lat, ok := ss.FsyncSeconds.Quantile(q); ok {
				fmt.Fprintf(w, "eflora_nsd_state_fsync_seconds{quantile=%q} %.9f\n", fmt.Sprintf("%g", q), lat.Seconds())
			}
		}
		fmt.Fprintf(w, "eflora_nsd_state_snapshots_total %d\n", ss.Snapshots)
		fmt.Fprintf(w, "eflora_nsd_state_snapshot_bytes %d\n", ss.SnapshotBytes)
		fmt.Fprintf(w, "eflora_nsd_state_snapshot_seconds %.9f\n", ss.SnapshotSeconds)
		fmt.Fprintf(w, "eflora_nsd_state_recovery_replayed_total %d\n", ss.RecoveryReplayed)
		fmt.Fprintf(w, "eflora_nsd_state_recovery_snapshots_skipped_total %d\n", ss.RecoverySnapshotsSkipped)
		fmt.Fprintf(w, "eflora_nsd_state_recovery_discarded_bytes_total %d\n", ss.RecoveryDiscardedBytes)
	}
	for k, depth := range s.pool.ShardDepths() {
		fmt.Fprintf(w, "eflora_nsd_shard_depth{shard=\"%d\"} %d\n", k, depth)
	}
	for k, pending := range s.pool.PendingCounts() {
		fmt.Fprintf(w, "eflora_nsd_shard_pending{shard=\"%d\"} %d\n", k, pending)
	}
}

func (s *server) reallocated() int {
	if s.realloc == nil {
		return 0
	}
	return s.realloc.Reassigned()
}

// listenHTTP binds addr for the /metrics and /healthz endpoints.
func listenHTTP(addr string, metrics http.HandlerFunc) (net.Listener, *http.Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", metrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return lis, &http.Server{Handler: mux}, nil
}

// replayGatewayEUI synthesizes a stable forwarder identity per gateway
// index for the load generator's downlink exchange.
func replayGatewayEUI(gw int) [8]byte {
	return [8]byte{0xEF, 0x10, 0x5A, 0, 0, 0, byte(gw >> 8), byte(gw)}
}

// runDownlinkExchange closes the replay loop over the commands the
// control step left queued in the server's scheduler: every reassigned
// device sends one more heartbeat on its OLD settings, the scheduler
// answers it with the LinkADRReq PULL_RESP in the device's RX1/RX2
// window, the simulated gateway judges and transmits it (blocking its own
// receiver for the airtime), and the simulated device applies the
// command only if the downlink actually lands — then acknowledges it
// with a LinkADRAns MAC uplink that runs the full FPort-0 codec
// roundtrip into the server's MAC handler.
func runDownlinkExchange(s *server, netw *core.Network, a model.Allocation, rt *ingest.Replay, delta *scenario.Delta, out io.Writer) error {
	plan := s.plan
	scfg := s.sched.Config()

	validFreqs := make([]float64, 0, plan.NumChannels()+1)
	for _, ch := range plan.Uplink {
		validFreqs = append(validFreqs, ch.CenterHz/1e6)
	}
	validFreqs = append(validFreqs, scfg.RX2FreqMHz)
	engines := make([]engine.Gateway, netw.Net.G())
	sims := make([]downlink.GatewaySim, netw.Net.G())
	for k := range engines {
		engines[k].Reset(engine.Config{
			Capacity:   netw.Params.GatewayCapacity,
			HalfDuplex: true,
			NoiseMW:    lora.DBmToMilliwatts(netw.Params.NoiseDBm),
			Thresholds: engine.NewThresholds(),
		})
		sims[k] = downlink.GatewaySim{Eng: &engines[k], ValidFreqMHz: validFreqs}
	}

	var applied, unheard, unsent, probes, blocked int
	windows := [3]int{}
	firstApplied := ""
	// Each probe enters its gateway's engine as a one-entry window cut at
	// its own start.
	var probe engine.Window
	var probeDone []engine.Done
	probeRxMW := []float64{lora.DBmToMilliwatts(-60)}
	for k, c := range delta.Changes {
		i := c.Device
		last := rt.LastUp[i]
		if last.Gateway < 0 {
			unheard++
			continue
		}
		// One more deterministic heartbeat per device on its OLD radio
		// settings — the uplink whose Class-A windows carry the command.
		hbS := rt.SimTimeS + 0.25 + 0.5*float64(k)
		ch := plan.Uplink[a.Channel[i]]
		upFreqMHz := ch.CenterHz / 1e6
		upDatr := ingest.Datr(a.SF[i], ch.BandwidthHz)
		dev := s.devices[i]
		frame := s.sched.ObserveUplink(downlink.Uplink{
			DevAddr: dev.DevAddr,
			Gateway: last.Gateway,
			EUI:     replayGatewayEUI(last.Gateway),
			Tmst:    uint64(hbS * 1e6),
			FreqMHz: upFreqMHz,
			Datr:    upDatr,
			AtS:     hbS,
		}, hbS)
		if frame == nil {
			unsent++ // both windows duty-blocked; stays queued
			continue
		}
		sim := downlink.DeviceSim{
			DevAddr:        dev.DevAddr,
			Keys:           dev.Keys,
			Plan:           plan,
			RX1DelayS:      scfg.RX1DelayS,
			RX2FreqMHz:     scfg.RX2FreqMHz,
			RX2Datr:        scfg.RX2Datr,
			LastUplinkEndS: hbS,
			UplinkFreqMHz:  upFreqMHz,
			UplinkDatr:     upDatr,
			SF:             a.SF[i],
			TPdBm:          a.TPdBm[i],
			Channel:        a.Channel[i],
		}
		// At most two attempts by construction: the RX2 retry of a failed
		// RX1 is the scheduler's only second chance.
		for attempt := 0; frame != nil && attempt < 2; attempt++ {
			startS, endS, errStr := sims[frame.Gateway].Transmit(&frame.TXPK, hbS+0.05)
			retry := s.sched.OnTxAck(frame.EUI, frame.Token, errStr, hbS+0.1)
			if errStr == ingest.TxErrNone {
				// The gateway is deaf while its downlink is in the air:
				// probe the half-duplex window with a strong uplink.
				probes++
				mid := (startS + endS) / 2
				eng := &engines[frame.Gateway]
				before := eng.Counters.AckBlocked
				probe.Reset(probes)
				probe.Append(i, a.SF[i], a.Channel[i], mid, endS+0.01, 0)
				probeDone = eng.Batch(&probe, probeRxMW, mid, probeDone[:0])
				if eng.Counters.AckBlocked > before {
					blocked++
				}
				w, err := sim.Receive(&frame.TXPK, startS)
				if err != nil {
					return fmt.Errorf("downlink: device %d: %w", i, err)
				}
				if w > 0 && sim.AppliedCount > 0 {
					applied++
					windows[w]++
					if firstApplied == "" {
						firstApplied = fmt.Sprintf(
							"downlink: device %d applied SF%d->SF%d TP %gdBm ch %d via RX%d at %.2fs — only after the PULL_RESP landed\n",
							i, a.SF[i], sim.SF, sim.TPdBm, sim.Channel, w, sim.AppliedAtS)
					}
					// The device acknowledges on its next uplink: a LinkADRAns
					// on FPort 0, through the real codec both directions.
					ansPhy, err := lorawan.Encode(lorawan.Frame{
						MType:   lorawan.UnconfirmedDataUp,
						DevAddr: dev.DevAddr,
						ADR:     true,
						FCnt:    uint32(s.cfg.packets) + 1,
						FPort:   0,
						Payload: lorawan.LinkADRAns{ChannelACK: true, DataRateACK: true, PowerACK: true}.Encode(),
					}, dev.Keys)
					if err != nil {
						return fmt.Errorf("downlink: device %d ans encode: %w", i, err)
					}
					fr, err := lorawan.Decode(ansPhy, dev.Keys, 0)
					if err != nil {
						return fmt.Errorf("downlink: device %d ans decode: %w", i, err)
					}
					s.onMACUplink(netserver.Delivery{DevAddr: fr.DevAddr, FCnt: fr.FCnt, FPort: fr.FPort, Payload: fr.Payload})
				}
			}
			frame = retry
		}
	}
	dl := s.sched.Counters()
	fmt.Fprintf(out, "downlink: %d command(s): %d sent, %d acked, %d applied (RX1 %d, RX2 %d), %d retried, %d duty-blocked, %d still queued, %d unheard\n",
		len(delta.Changes), dl.Sent, dl.Acked, applied, windows[1], windows[2], dl.Retried, dl.DutyBlocked, unsent, unheard)
	if firstApplied != "" {
		fmt.Fprint(out, firstApplied)
	}
	fmt.Fprintf(out, "downlink: half-duplex gateways blocked %d/%d probe uplink(s) during their own TX\n", blocked, probes)
	ac := s.realloc.Ans()
	fmt.Fprintf(out, "downlink: LinkADRAns %d sent, %d applied, %d rejected, %d unsolicited\n",
		ac.Sent, ac.Applied, ac.Rejected, ac.Unsolicited)
	return nil
}

func ratio(num, den int) string {
	if den == 0 {
		return "0"
	}
	return fmt.Sprintf("%.6f", float64(num)/float64(den))
}

func (d *daemon) writeSummary(out io.Writer) {
	c := d.pool.Counters()
	fmt.Fprintf(out, "served %d uplinks (%d delivered, %d duplicates, %d rejected, %d parse errors), %d gateways, %d devices reassigned\n",
		c.Uplinks, c.Delivered, c.Duplicates, c.Rejected, d.parseErr.Load(), d.gwCount.Load(), d.reallocated())
	dl := d.sched.Counters()
	fmt.Fprintf(out, "downlink: %d queued, %d sent, %d acked, %d failed (%d retried, %d expired, %d unroutable, %d duty-blocked), %d routes\n",
		dl.Queued, dl.Sent, dl.Acked, dl.Failed, dl.Retried, dl.Expired, dl.NoRoute, dl.DutyBlocked, d.routes.Len())
}

// replayTrace synthesizes the -replay gateway traffic for the scenario.
func replayTrace(cfg config, netw *core.Network, a model.Allocation) (*ingest.Replay, error) {
	return ingest.BuildReplay(netw.Net, netw.Params, a, ingest.ReplayConfig{
		Packets:      cfg.packets,
		Seed:         cfg.seed,
		DedupWindowS: cfg.dedupWindowS,
		DriftDevices: cfg.driftDevices,
		DriftSNRdB:   cfg.driftSNRdB,
	})
}

// ingestTrace dispatches uplinks [from, to) of a replay trace into the
// pool, running the clock flusher in virtual time every 4096 uplinks of
// the whole trace, then drains the pool.
func (s *server) ingestTrace(rt *ingest.Replay, from, to int) {
	for i := from; i < to; i++ {
		s.pool.Dispatch(rt.Uplinks[i])
		if i&0x0FFF == 0x0FFF {
			s.pool.FlushExpiredVirtual()
		}
	}
	s.pool.Drain()
}

// runReplay is the load-generator mode: synthesize gateway traffic from
// the scenario + simulator, push it through the server's sharded pool at
// full speed, report throughput/latency/accounting, run the server's
// control step at trace end and deliver its downlinks to simulated
// devices, and verify the counters bit-exactly against a sequential
// single-shard ingest.
func runReplay(cfg config, netw *core.Network, a model.Allocation, out io.Writer) error {
	fmt.Fprintf(out, "replay: simulating %d devices x %d packets (seed %d)...\n",
		netw.Net.N(), cfg.packets, cfg.seed)
	rt, err := replayTrace(cfg, netw, a)
	if err != nil {
		return err
	}
	s, err := newServer(cfg, netw, a)
	if err != nil {
		return err
	}
	if s.deltaFile != nil {
		defer s.deltaFile.Close() // error paths; the success path checks Close
	}
	// Register the trace's gateways under the EUIs the downlink exchange
	// answers through, so /metrics counts them as live mode counts
	// forwarders.
	for k := 0; k < netw.Net.G(); k++ {
		s.gatewayIndex(replayGatewayEUI(k))
	}
	if cfg.httpAddr != "" {
		lis, httpSrv, err := listenHTTP(cfg.httpAddr, s.handleMetrics)
		if err != nil {
			return err
		}
		go func() { _ = httpSrv.Serve(lis) }()
		defer httpSrv.Close()
		fmt.Fprintf(out, "replay: metrics on %s\n", lis.Addr())
	}
	s.pool.Start()

	t0 := time.Now()
	s.ingestTrace(rt, 0, len(rt.Uplinks))
	s.pool.Flush()
	wall := time.Since(t0)
	got := s.pool.Counters()

	rate := float64(got.Uplinks) / wall.Seconds()
	fmt.Fprintf(out, "replay: %d uplinks in %v (%.0f uplinks/sec, %d shards)\n",
		got.Uplinks, wall.Round(time.Microsecond), rate, cfg.shards)
	for _, q := range []float64{0.5, 0.99} {
		if lat, ok := s.pool.LatencyQuantile(q); ok {
			fmt.Fprintf(out, "replay: p%.0f ingest latency <= %v\n", q*100, lat)
		}
	}
	fmt.Fprintf(out, "replay: delivered %d, duplicates %d (dedup hit rate %s), rejected %d\n",
		got.Delivered, got.Duplicates, ratio(got.Duplicates, got.Uplinks), got.Rejected)
	fmt.Fprintf(out, "replay: tracked %d devices with rolling SNR/PRR\n", s.tracker.Len())

	if got != rt.Expected {
		return fmt.Errorf("replay counters %+v diverge from generator expectation %+v", got, rt.Expected)
	}

	// One control-loop pass over the observed statistics, at trace end. No
	// device has an uplink in the scheduler yet, so every command waits
	// queued and no frame comes back.
	if s.realloc != nil {
		delta, _, err := s.reallocStep(rt.SimTimeS)
		if err != nil {
			return err
		}
		moved := 0
		if delta != nil {
			moved = len(delta.Changes)
		}
		fmt.Fprintf(out, "replay: re-allocation pass moved %d device(s)\n", moved)
		// Close the loop: deliver the reassignments as Class-A downlinks
		// to the simulated devices and report what actually landed.
		if moved > 0 {
			if err := runDownlinkExchange(s, netw, a, rt, delta, out); err != nil {
				return err
			}
		}
	}
	s.pool.Close()
	if s.deltaFile != nil {
		if err := s.deltaFile.Close(); err != nil {
			return err
		}
	}

	seq := ingest.NewPool(rt.Devices, ingest.PoolConfig{
		Shards:       1,
		QueueDepth:   cfg.queueDepth,
		DedupWindowS: cfg.dedupWindowS,
	})
	seq.Start()
	for _, up := range rt.Uplinks {
		seq.Dispatch(up)
	}
	seq.Drain()
	seq.Flush()
	seq.Close()
	if sc := seq.Counters(); sc != got {
		return fmt.Errorf("VERIFY FAILED: single-shard counters %+v != %d-shard counters %+v", sc, cfg.shards, got)
	}
	fmt.Fprintf(out, "VERIFY OK: %d-shard counters bit-exact vs sequential single-shard run\n", cfg.shards)
	// Deterministic shard-occupancy report (all zero after drain, but the
	// shape documents the sharding).
	depths := s.pool.ShardDepths()
	sort.Ints(depths)
	fmt.Fprintf(out, "replay: final shard depths %v\n", depths)
	return nil
}
