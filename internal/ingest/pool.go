package ingest

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"eflora/internal/netserver"
	"eflora/internal/stats"
)

// PoolConfig sizes a sharded ingest pool.
type PoolConfig struct {
	// Shards is the number of independent netserver.Server instances
	// (default 8). All traffic of one DevAddr maps to one shard, so
	// per-device ordering is preserved while unrelated devices never
	// contend on a lock.
	Shards int
	// QueueDepth bounds each shard's inbox (default 1024). A full inbox
	// blocks Dispatch — backpressure toward the UDP reader — instead of
	// growing without bound.
	QueueDepth int
	// DedupWindowS overrides the servers' dedup window (0 keeps the
	// netserver default).
	DedupWindowS float64
	// RetainCap bounds each shard's delivery backlog (ring semantics);
	// 0 keeps the unbounded default.
	RetainCap int
	// OnDelivery, when set, streams every finalized delivery out of the
	// owning shard. It runs on the shard worker with the shard server's
	// lock held and must not call back into the pool.
	OnDelivery func(shard int, d netserver.Delivery)
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	return c
}

// Pool fans uplinks across DevAddr-sharded netserver instances, each fed
// by a bounded FIFO inbox and drained by a dedicated worker goroutine.
// The shard — not a global server mutex — is the unit of concurrency.
type Pool struct {
	cfg      PoolConfig
	shards   []*shard
	inflight atomic.Int64
	wg       sync.WaitGroup
	closed   atomic.Bool
}

type shard struct {
	srv   *netserver.Server
	inbox chan queued
	depth atomic.Int64
	// hist is the enqueue-to-handled latency of the shard's uplinks,
	// written by its worker and read by LatencyQuantile under histMu.
	histMu sync.Mutex
	hist   stats.LatencyHistogram
	// maxSeenS is the newest uplink timestamp the shard has processed —
	// the replay clock for virtual-time flushing (math.Float64bits).
	maxSeenS atomic.Uint64
}

type queued struct {
	up  netserver.Uplink
	enq time.Time
}

// ShardOf maps a DevAddr to its shard index (Fibonacci hashing so dense
// sequential DevAddr spaces still spread evenly).
func ShardOf(devAddr uint32, shards int) int {
	return int((uint64(devAddr) * 0x9E3779B97F4A7C15 >> 32) % uint64(shards))
}

// NewPool provisions the devices across cfg.Shards servers. Start must be
// called before Dispatch.
func NewPool(devices []netserver.Device, cfg PoolConfig) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{cfg: cfg, shards: make([]*shard, cfg.Shards)}
	perShard := make([][]netserver.Device, cfg.Shards)
	for _, d := range devices {
		k := ShardOf(d.DevAddr, cfg.Shards)
		perShard[k] = append(perShard[k], d)
	}
	for k := range p.shards {
		sh := &shard{
			srv:   netserver.New(perShard[k]),
			inbox: make(chan queued, cfg.QueueDepth),
		}
		if cfg.DedupWindowS > 0 {
			sh.srv.DedupWindowS = cfg.DedupWindowS
		}
		if cfg.RetainCap > 0 || cfg.OnDelivery != nil {
			k := k
			var drain func(netserver.Delivery)
			if cfg.OnDelivery != nil {
				drain = func(d netserver.Delivery) { cfg.OnDelivery(k, d) }
			}
			sh.srv.SetRetention(cfg.RetainCap, drain)
		}
		p.shards[k] = sh
	}
	return p
}

// Start launches one worker per shard.
func (p *Pool) Start() {
	for _, sh := range p.shards {
		p.wg.Add(1)
		go p.work(sh)
	}
}

func (p *Pool) work(sh *shard) {
	defer p.wg.Done()
	for q := range sh.inbox {
		_ = sh.srv.HandleUplink(q.up)
		if ts := q.up.ReceivedAtS; ts > floatFromBits(sh.maxSeenS.Load()) {
			sh.maxSeenS.Store(floatToBits(ts))
		}
		lat := time.Since(q.enq)
		sh.histMu.Lock()
		sh.hist.Observe(lat)
		sh.histMu.Unlock()
		sh.depth.Add(-1)
		p.inflight.Add(-1)
	}
}

// Dispatch routes one gateway reception to its device's shard, blocking
// when that shard's inbox is full (backpressure). Runt payloads that
// carry no DevAddr go to shard 0, whose server rejects and counts them.
func (p *Pool) Dispatch(up netserver.Uplink) {
	k := 0
	if len(up.PHYPayload) >= 5 {
		devAddr := uint32(up.PHYPayload[1]) | uint32(up.PHYPayload[2])<<8 |
			uint32(up.PHYPayload[3])<<16 | uint32(up.PHYPayload[4])<<24
		k = ShardOf(devAddr, len(p.shards))
	}
	sh := p.shards[k]
	p.inflight.Add(1)
	sh.depth.Add(1)
	//eflora:blocking-ok bounded backpressure is the documented contract: the inbox caps at QueueDepth and a full shard must stall the UDP reader, not grow without bound
	sh.inbox <- queued{up: up, enq: time.Now()}
}

// Drain blocks until every dispatched uplink has been processed.
func (p *Pool) Drain() {
	for p.inflight.Load() != 0 {
		time.Sleep(100 * time.Microsecond)
	}
}

// Close stops the workers after the inboxes empty. Dispatch must not be
// called after Close.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	for _, sh := range p.shards {
		close(sh.inbox)
	}
	p.wg.Wait()
}

// FlushExpired runs the clock-driven dedup flush on every shard and
// returns the number of deliveries finalized. nowS is the server
// timescale: wall-clock seconds for live traffic, virtual trace time for
// replays.
func (p *Pool) FlushExpired(nowS float64) int {
	n := 0
	for _, sh := range p.shards {
		n += sh.srv.FlushExpired(nowS)
	}
	return n
}

// FlushExpiredVirtual flushes each shard against its own newest-seen
// uplink timestamp — the replay-mode clock, where trace time advances
// only as packets are processed.
func (p *Pool) FlushExpiredVirtual() int {
	n := 0
	for _, sh := range p.shards {
		n += sh.srv.FlushExpired(floatFromBits(sh.maxSeenS.Load()))
	}
	return n
}

// Flush finalizes every pending frame on every shard.
func (p *Pool) Flush() {
	for _, sh := range p.shards {
		sh.srv.Flush()
	}
}

// Counters aggregates the shard servers' accounting.
func (p *Pool) Counters() netserver.Counters {
	var c netserver.Counters
	for _, sh := range p.shards {
		c.Add(sh.srv.Counters())
	}
	return c
}

// ShardDepths reports each shard's current inbox occupancy.
func (p *Pool) ShardDepths() []int {
	out := make([]int, len(p.shards))
	for k, sh := range p.shards {
		out[k] = int(sh.depth.Load())
	}
	return out
}

// PendingCounts reports each shard's open dedup windows.
func (p *Pool) PendingCounts() []int {
	out := make([]int, len(p.shards))
	for k, sh := range p.shards {
		out[k] = sh.srv.PendingCount()
	}
	return out
}

// Shard exposes shard k's server (tests, per-shard inspection).
func (p *Pool) Shard(k int) *netserver.Server { return p.shards[k].srv }

// Shards returns the shard count.
func (p *Pool) Shards() int { return len(p.shards) }

// LatencyQuantile reports the nearest-rank q-quantile (0 < q <= 1) of
// ingest latency — enqueue to handled — across all shards, as the upper
// bound of its power-of-two bucket (stats.LatencyHistogram). ok is false
// before any uplink has been processed. It is safe to call while the
// workers run.
func (p *Pool) LatencyQuantile(q float64) (time.Duration, bool) {
	var merged stats.LatencyHistogram
	for _, sh := range p.shards {
		sh.histMu.Lock()
		merged.Add(&sh.hist)
		sh.histMu.Unlock()
	}
	return merged.Quantile(q)
}

// Non-negative IEEE 754 floats order like their bit patterns, so the
// timestamp high-water mark can live in an atomic.Uint64.
func floatToBits(f float64) uint64 {
	if f < 0 {
		return 0
	}
	return math.Float64bits(f)
}

func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
