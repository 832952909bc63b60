package ingest

import (
	"slices"
	"sync"
	"testing"
	"time"

	"eflora/internal/lorawan"
	"eflora/internal/netserver"
)

func encodeFrame(t testing.TB, d netserver.Device, fcnt uint32, payload []byte) []byte {
	t.Helper()
	phy, err := lorawan.Encode(lorawan.Frame{
		MType: lorawan.UnconfirmedDataUp, DevAddr: d.DevAddr,
		FCnt: fcnt, FPort: 1, Payload: payload,
	}, d.Keys)
	if err != nil {
		t.Fatal(err)
	}
	return phy
}

func TestShardOfCoversAndIsStable(t *testing.T) {
	const shards = 8
	hit := make([]int, shards)
	for addr := uint32(1); addr <= 4096; addr++ {
		k := ShardOf(addr, shards)
		if k != ShardOf(addr, shards) {
			t.Fatal("ShardOf not deterministic")
		}
		hit[k]++
	}
	for k, n := range hit {
		// A dense sequential address space must spread roughly evenly.
		if n < 256 || n > 768 {
			t.Errorf("shard %d got %d of 4096 addresses", k, n)
		}
	}
}

func TestPoolRoutesAndAggregates(t *testing.T) {
	devs := ProvisionDevices(32)
	var mu sync.Mutex
	best := make(map[uint32][]int) // each delivery's best gateway, per device
	p := NewPool(devs, PoolConfig{Shards: 4, OnDelivery: func(shard int, d netserver.Delivery) {
		mu.Lock()
		defer mu.Unlock()
		if shard != ShardOf(d.DevAddr, 4) {
			t.Errorf("device %08x delivered by shard %d", d.DevAddr, shard)
		}
		best[d.DevAddr] = append(best[d.DevAddr], d.Gateways[0].Gateway)
	}})
	p.Start()
	defer p.Close()
	for fcnt := uint32(1); fcnt <= 3; fcnt++ {
		for _, d := range devs {
			phy := encodeFrame(t, d, fcnt, []byte{byte(fcnt)})
			p.Dispatch(netserver.Uplink{Gateway: 0, ReceivedAtS: float64(fcnt) * 10, PHYPayload: phy})
			// A second gateway copy inside the window.
			p.Dispatch(netserver.Uplink{Gateway: 1, ReceivedAtS: float64(fcnt)*10 + 0.01, SNRdB: 3, PHYPayload: phy})
		}
	}
	p.Drain()
	p.Flush()
	c := p.Counters()
	if c.Uplinks != 32*3*2 || c.Delivered != 32*3 || c.Duplicates != 32*3 || c.Rejected != 0 {
		t.Errorf("counters = %+v", c)
	}
	if q, ok := p.LatencyQuantile(0.99); !ok || q <= 0 {
		t.Errorf("p99 latency = %v, %v", q, ok)
	}
	if depths := p.ShardDepths(); len(depths) != 4 {
		t.Errorf("depths = %v", depths)
	}
	// Every device's deliveries come from its own shard, best copy first.
	mu.Lock()
	defer mu.Unlock()
	for _, d := range devs {
		if gws := best[d.DevAddr]; !slices.Equal(gws, []int{1, 1, 1}) {
			t.Errorf("device %08x best gateways = %v, want [1 1 1]", d.DevAddr, gws)
		}
	}
}

// TestPoolLatencyQuantileWhileWorking reads the latency quantiles on a
// second goroutine while the shard workers record into their histograms —
// the daemon's /metrics handler against live ingest. Under -race any
// unsynchronized histogram access fails it.
func TestPoolLatencyQuantileWhileWorking(t *testing.T) {
	devs := ProvisionDevices(16)
	p := NewPool(devs, PoolConfig{Shards: 4})
	p.Start()
	defer p.Close()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if q, ok := p.LatencyQuantile(0.5); ok && q <= 0 {
				t.Errorf("p50 latency = %v", q)
				return
			}
		}
	}()
	for fcnt := uint32(1); fcnt <= 20; fcnt++ {
		for _, d := range devs {
			p.Dispatch(netserver.Uplink{ReceivedAtS: float64(fcnt), PHYPayload: encodeFrame(t, d, fcnt, nil)})
		}
	}
	p.Drain()
	close(stop)
	<-done
	if _, ok := p.LatencyQuantile(0.99); !ok {
		t.Error("no latency recorded after 320 uplinks")
	}
}

func TestPoolVirtualClockFlush(t *testing.T) {
	devs := ProvisionDevices(4)
	p := NewPool(devs, PoolConfig{Shards: 2})
	p.Start()
	defer p.Close()
	for i, d := range devs {
		phy := encodeFrame(t, d, 1, []byte{1})
		p.Dispatch(netserver.Uplink{ReceivedAtS: float64(i), PHYPayload: phy})
	}
	p.Drain()
	// The newest timestamp each shard saw is ~3 s; every window opened
	// at <= 3 s minus the 0.2 s default has expired except the newest.
	flushed := p.FlushExpiredVirtual()
	if flushed < 2 {
		t.Errorf("virtual flush finalized %d, want >= 2", flushed)
	}
	p.Flush()
	if c := p.Counters(); c.Delivered != 4 {
		t.Errorf("delivered = %d, want 4", c.Delivered)
	}
}

func TestPoolDeliveryDrainStreams(t *testing.T) {
	devs := ProvisionDevices(8)
	var mu sync.Mutex
	got := 0
	p := NewPool(devs, PoolConfig{
		Shards: 4,
		OnDelivery: func(shard int, d netserver.Delivery) {
			mu.Lock()
			got++
			mu.Unlock()
		},
	})
	p.Start()
	defer p.Close()
	for fcnt := uint32(1); fcnt <= 5; fcnt++ {
		for _, d := range devs {
			p.Dispatch(netserver.Uplink{ReceivedAtS: float64(fcnt) * 10, PHYPayload: encodeFrame(t, d, fcnt, []byte{byte(fcnt)})})
		}
	}
	p.Drain()
	p.Flush()
	mu.Lock()
	defer mu.Unlock()
	if got != 8*5 {
		t.Errorf("drained deliveries = %d, want 40", got)
	}
	if c := p.Counters(); c.Delivered != got {
		t.Errorf("counted %d deliveries, drained %d", c.Delivered, got)
	}
}

// TestConcurrentGatewaysMatchSequential is the -race ingest test: many
// gateway goroutines hammer the sharded pool with interleaved duplicate
// copies, stale replays and out-of-order timestamps; the aggregated
// counters must equal a sequential single-server replay of the same
// traffic. Rounds are barriered so per-device counter order is defined
// even though gateway interleaving within a round is not.
func TestConcurrentGatewaysMatchSequential(t *testing.T) {
	const (
		nDev     = 48
		gateways = 6
		rounds   = 12
	)
	devs := ProvisionDevices(nDev)
	// Deterministic per-(gateway, device, round) decisions.
	dup := func(gw, dev, r int) bool { return (gw*7+dev*13+r*31)%5 == 0 }
	stale := func(gw, dev, r int) bool { return r >= 3 && (gw*11+dev*3+r*17)%7 == 0 }

	// Pre-encode all frames (device x round).
	phys := make([][][]byte, nDev)
	for d := range phys {
		phys[d] = make([][]byte, rounds+1)
		for r := 1; r <= rounds; r++ {
			phys[d][r] = encodeFrame(t, devs[d], uint32(r), []byte{byte(d), byte(r)})
		}
	}
	buildRound := func(gw, r int) []netserver.Uplink {
		var out []netserver.Uplink
		base := float64(r) * 100
		for d := 0; d < nDev; d++ {
			ts := base + float64((gw+d)%10)*0.005
			out = append(out, netserver.Uplink{
				Gateway: gw, ReceivedAtS: ts, SNRdB: float64(gw), PHYPayload: phys[d][r],
			})
			if dup(gw, d, r) {
				// Second copy, timestamped *before* the first (out of
				// order) half the time.
				ts2 := ts + 0.01
				if (gw+d+r)%2 == 0 {
					ts2 = ts - 0.002
				}
				out = append(out, netserver.Uplink{
					Gateway: gw, ReceivedAtS: ts2, SNRdB: float64(gw) + 1, PHYPayload: phys[d][r],
				})
			}
			if stale(gw, d, r) {
				// Replay of a frame two rounds old: deterministically
				// rejected whatever the interleaving.
				out = append(out, netserver.Uplink{
					Gateway: gw, ReceivedAtS: base + 0.05, PHYPayload: phys[d][r-2],
				})
			}
		}
		return out
	}

	// Concurrent run through the sharded pool.
	pool := NewPool(devs, PoolConfig{Shards: 8, QueueDepth: 64})
	pool.Start()
	for r := 1; r <= rounds; r++ {
		var wg sync.WaitGroup
		for gw := 0; gw < gateways; gw++ {
			wg.Add(1)
			go func(gw int) {
				defer wg.Done()
				for _, up := range buildRound(gw, r) {
					pool.Dispatch(up)
				}
			}(gw)
		}
		wg.Wait()
		// Barrier: the round must be fully ingested before the next
		// one's counters start, or replay/duplicate classification would
		// depend on scheduling.
		pool.Drain()
		if r%4 == 0 {
			pool.FlushExpiredVirtual()
		}
	}
	pool.Drain()
	pool.Flush()
	pool.Close()
	got := pool.Counters()

	// Sequential oracle: one server, same traffic, gateway-major order
	// within each round.
	seq := netserver.New(devs, nil)
	for r := 1; r <= rounds; r++ {
		for gw := 0; gw < gateways; gw++ {
			for _, up := range buildRound(gw, r) {
				_ = seq.HandleUplink(up)
			}
		}
	}
	seq.Flush()
	want := seq.Counters()

	if got != want {
		t.Errorf("concurrent counters %+v != sequential %+v", got, want)
	}
	if got.Delivered != nDev*rounds {
		t.Errorf("delivered = %d, want %d", got.Delivered, nDev*rounds)
	}
	if got.Rejected == 0 || got.Duplicates == 0 {
		t.Errorf("test traffic exercised no duplicates/replays: %+v", got)
	}
}

func TestPoolBackpressureBounded(t *testing.T) {
	devs := ProvisionDevices(2)
	p := NewPool(devs, PoolConfig{Shards: 1, QueueDepth: 4})
	p.Start()
	defer p.Close()
	frames := make([][]byte, 201)
	for fcnt := uint32(1); fcnt <= 200; fcnt++ {
		frames[fcnt] = encodeFrame(t, devs[0], fcnt, []byte{1})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for fcnt := 1; fcnt <= 200; fcnt++ {
			p.Dispatch(netserver.Uplink{ReceivedAtS: float64(fcnt), PHYPayload: frames[fcnt]})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("bounded dispatch deadlocked")
	}
	p.Drain()
	if c := p.Counters(); c.Uplinks != 200 {
		t.Errorf("uplinks = %d, want 200", c.Uplinks)
	}
}
