package ingest

import (
	"math"
	"testing"

	"eflora/internal/geo"
	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/netserver"
)

// replayFixture builds a small deterministic deployment with a feasible
// hand-rolled allocation (min feasible SF at max power, channels spread).
func replayFixture(t testing.TB, n int) (*model.Network, model.Params, model.Allocation) {
	t.Helper()
	p := model.DefaultParams()
	p.PacketIntervalS = 60
	net := &model.Network{
		Gateways: []geo.Point{{X: 0, Y: 0}, {X: 1800, Y: 0}, {X: 0, Y: 1800}},
	}
	for i := 0; i < n; i++ {
		r := 200 + float64(i%9)*250
		ang := float64(i) * 2.39996 // golden-angle spiral
		net.Devices = append(net.Devices, geo.Point{
			X: r * math.Cos(ang), Y: r * math.Sin(ang),
		})
	}
	gains := model.Gains(net, p)
	a := model.NewAllocation(n, p.Plan)
	for i := 0; i < n; i++ {
		sf, ok := model.MinFeasibleSF(gains, i, p.Plan.MaxTxPowerDBm)
		if !ok {
			sf = lora.MaxSF
		}
		a.SF[i] = sf
		a.TPdBm[i] = p.Plan.MaxTxPowerDBm
		a.Channel[i] = i % p.Plan.NumChannels()
	}
	if err := a.Validate(n, p); err != nil {
		t.Fatal(err)
	}
	return net, p, a
}

func TestBuildReplayDeterministic(t *testing.T) {
	net, p, a := replayFixture(t, 30)
	cfg := ReplayConfig{Packets: 5, Seed: 11}
	r1, err := BuildReplay(net, p, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := BuildReplay(net, p, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Uplinks) != len(r2.Uplinks) || r1.Expected != r2.Expected {
		t.Fatalf("replay not deterministic: %d/%+v vs %d/%+v",
			len(r1.Uplinks), r1.Expected, len(r2.Uplinks), r2.Expected)
	}
	for i := range r1.Uplinks {
		u1, u2 := r1.Uplinks[i], r2.Uplinks[i]
		if u1.Gateway != u2.Gateway || u1.ReceivedAtS != u2.ReceivedAtS || u1.SNRdB != u2.SNRdB {
			t.Fatalf("uplink %d differs: %+v vs %+v", i, u1, u2)
		}
	}
	if r1.Expected.Delivered == 0 {
		t.Fatal("replay delivered nothing — fixture links are all dead")
	}
	if r1.Expected.Duplicates == 0 {
		t.Error("replay synthesized no duplicates")
	}
}

// TestReplayBitExactAcrossShardCounts is the acceptance oracle: the same
// trace ingested through a multi-shard pool, a single-shard pool and a
// bare sequential server must produce identical counters, all equal to
// the generator's analytical expectation.
func TestReplayBitExactAcrossShardCounts(t *testing.T) {
	net, p, a := replayFixture(t, 48)
	rt, err := BuildReplay(net, p, a, ReplayConfig{Packets: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	run := func(shards int) netserver.Counters {
		pool := NewPool(rt.Devices, PoolConfig{Shards: shards, DedupWindowS: rt.DedupWindowS})
		pool.Start()
		for i, up := range rt.Uplinks {
			pool.Dispatch(up)
			if i%1000 == 999 {
				pool.FlushExpiredVirtual() // interleave clock flushes
			}
		}
		pool.Drain()
		pool.Flush()
		pool.Close()
		return pool.Counters()
	}

	sharded := run(8)
	single := run(1)
	seq := netserver.New(rt.Devices, nil)
	seq.DedupWindowS = rt.DedupWindowS
	for _, up := range rt.Uplinks {
		_ = seq.HandleUplink(up)
	}
	seq.Flush()

	if sharded != rt.Expected {
		t.Errorf("8-shard counters %+v != expected %+v", sharded, rt.Expected)
	}
	if single != rt.Expected {
		t.Errorf("1-shard counters %+v != expected %+v", single, rt.Expected)
	}
	if got := seq.Counters(); got != rt.Expected {
		t.Errorf("sequential counters %+v != expected %+v", got, rt.Expected)
	}
}

// TestReplayFeedsTracker checks the delivery stream drives the rolling
// statistics: every delivered device is tracked with a sane PRR and SNR.
func TestReplayFeedsTracker(t *testing.T) {
	net, p, a := replayFixture(t, 24)
	rt, err := BuildReplay(net, p, a, ReplayConfig{Packets: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tracker := NewTracker(0)
	pool := NewPool(rt.Devices, PoolConfig{
		Shards:       4,
		DedupWindowS: rt.DedupWindowS,
		OnDelivery:   func(_ int, d netserver.Delivery) { tracker.Observe(d) },
	})
	pool.Start()
	for _, up := range rt.Uplinks {
		pool.Dispatch(up)
	}
	pool.Drain()
	pool.Flush()
	pool.Close()

	if tracker.Len() == 0 {
		t.Fatal("tracker saw no deliveries")
	}
	for addr, s := range tracker.Snapshot() {
		if s.PRR() <= 0 || s.PRR() > 1 {
			t.Errorf("device %08x PRR = %v", addr, s.PRR())
		}
		if s.Received == 0 {
			t.Errorf("device %08x tracked with zero receptions", addr)
		}
	}
}
