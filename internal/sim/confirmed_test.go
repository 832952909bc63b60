package sim

import (
	"math"
	"sort"
	"testing"

	"eflora/internal/geo"
	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/rng"
)

func TestConfirmedLoneDeviceNoRetransmissions(t *testing.T) {
	net, p, a := lonePair()
	res, err := RunConfirmed(net, p, a, ConfirmedConfig{Config: Config{PacketsPerDevice: 300, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated[0] != 300 {
		t.Fatalf("generated = %d", res.Generated[0])
	}
	// Near the gateway almost everything succeeds first try.
	if res.PRR[0] < 0.99 {
		t.Errorf("confirmed PRR = %v, want ~1 (retransmissions recover fades)", res.PRR[0])
	}
	if res.Attempts[0] < res.Generated[0] {
		t.Errorf("attempts %d below generated %d", res.Attempts[0], res.Generated[0])
	}
}

func TestConfirmedRetransmissionsRecoverFades(t *testing.T) {
	// A marginal link: unconfirmed PRR well below 1; confirmed delivery
	// must be substantially higher because each packet gets up to 8
	// tries.
	net := &model.Network{
		Devices:  []geo.Point{{X: 2800, Y: 0}},
		Gateways: []geo.Point{{}},
	}
	p := model.DefaultParams()
	a := model.NewAllocation(1, p.Plan)
	a.SF[0] = lora.SF7
	a.TPdBm[0] = 14
	un, err := Run(net, p, a, Config{PacketsPerDevice: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	co, err := RunConfirmed(net, p, a, ConfirmedConfig{Config: Config{PacketsPerDevice: 400, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if un.PRR[0] > 0.9 {
		t.Fatalf("test setup: unconfirmed PRR %v too high to observe retransmissions", un.PRR[0])
	}
	if co.PRR[0] <= un.PRR[0]+0.1 {
		t.Errorf("confirmed PRR %v should exceed unconfirmed %v by a margin", co.PRR[0], un.PRR[0])
	}
	if co.Retransmissions == 0 {
		t.Error("expected retransmissions")
	}
	// Retransmissions cost energy: attempts > generated, energy above
	// the unconfirmed run.
	if co.TxEnergyJ[0] <= un.TxEnergyJ[0] {
		t.Errorf("confirmed TX energy %v should exceed unconfirmed %v", co.TxEnergyJ[0], un.TxEnergyJ[0])
	}
}

func TestConfirmedAbandonsAfterMaxAttempts(t *testing.T) {
	// An out-of-range device abandons every packet after MaxAttempts.
	net := &model.Network{
		Devices:  []geo.Point{{X: 60000, Y: 0}},
		Gateways: []geo.Point{{}},
	}
	p := model.DefaultParams()
	a := model.NewAllocation(1, p.Plan)
	a.SF[0] = lora.SF12
	a.TPdBm[0] = 14
	res, err := RunConfirmed(net, p, a, ConfirmedConfig{
		Config:      Config{PacketsPerDevice: 20, Seed: 5},
		MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Abandoned != 20 {
		t.Errorf("abandoned = %d, want 20", res.Abandoned)
	}
	if res.Attempts[0] != 60 {
		t.Errorf("attempts = %d, want 20x3", res.Attempts[0])
	}
	if res.PRR[0] != 0 {
		t.Errorf("PRR = %v, want 0", res.PRR[0])
	}
}

func TestConfirmedLoadFeedback(t *testing.T) {
	// Two overloaded same-group devices: retransmissions add load on top
	// of an already collision-heavy channel, so the confirmed run sends
	// strictly more packets and still cannot reach unconfirmed-clean PRR.
	net := &model.Network{
		Devices:  []geo.Point{{X: 100, Y: 0}, {X: -100, Y: 0}},
		Gateways: []geo.Point{{}},
	}
	p := model.DefaultParams()
	p.PacketIntervalS = 6
	a := model.NewAllocation(2, p.Plan)
	for i := range a.SF {
		a.SF[i] = lora.SF12
		a.TPdBm[i] = 14
		a.Channel[i] = 0
	}
	res, err := RunConfirmed(net, p, a, ConfirmedConfig{Config: Config{PacketsPerDevice: 100, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retransmissions == 0 {
		t.Fatal("expected heavy retransmission load")
	}
	total := res.Attempts[0] + res.Attempts[1]
	if total <= 200 {
		t.Errorf("total attempts %d should exceed generated 200", total)
	}
}

func TestConfirmedDeterministic(t *testing.T) {
	r := rng.New(11)
	net := &model.Network{
		Devices:  geo.UniformDisc(40, 2500, r),
		Gateways: geo.GridGateways(2, 2500),
	}
	p := model.DefaultParams()
	a := model.NewAllocation(40, p.Plan)
	for i := range a.SF {
		a.SF[i] = lora.SF9
		a.TPdBm[i] = 10
		a.Channel[i] = i % 8
	}
	r1, err := RunConfirmed(net, p, a, ConfirmedConfig{Config: Config{PacketsPerDevice: 30, Seed: 13}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunConfirmed(net, p, a, ConfirmedConfig{Config: Config{PacketsPerDevice: 30, Seed: 13}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Delivered {
		if r1.Delivered[i] != r2.Delivered[i] || r1.Attempts[i] != r2.Attempts[i] {
			t.Fatalf("confirmed run not deterministic at device %d", i)
		}
	}
}

func TestConfirmedPowerViewsCoincide(t *testing.T) {
	net, p, a := lonePair()
	res, err := RunConfirmed(net, p, a, ConfirmedConfig{Config: Config{PacketsPerDevice: 50, Seed: 17}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.AvgPowerW[0]-res.RetxAvgPowerW[0]) > 1e-15 {
		t.Errorf("confirmed AvgPowerW %v != RetxAvgPowerW %v", res.AvgPowerW[0], res.RetxAvgPowerW[0])
	}
}

func TestConfirmedMatchesUnconfirmedFirstAttemptStats(t *testing.T) {
	// With MaxAttempts = 1 the confirmed engine degenerates to one try
	// per packet; aggregate PRR should statistically match the
	// fixed-schedule engine on the same network.
	r := rng.New(19)
	net := &model.Network{
		Devices:  geo.UniformDisc(60, 3000, r),
		Gateways: geo.GridGateways(2, 3000),
	}
	p := model.DefaultParams()
	gains := model.Gains(net, p)
	a := model.NewAllocation(60, p.Plan)
	for i := range a.SF {
		sf, ok := model.MinFeasibleSF(gains, i, 14)
		if !ok {
			sf = lora.MaxSF
		}
		a.SF[i] = sf
		a.TPdBm[i] = 14
		a.Channel[i] = i % 8
	}
	un, err := Run(net, p, a, Config{PacketsPerDevice: 200, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	co, err := RunConfirmed(net, p, a, ConfirmedConfig{
		Config:      Config{PacketsPerDevice: 200, Seed: 23},
		MaxAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mu, mc float64
	for i := 0; i < 60; i++ {
		mu += un.PRR[i]
		mc += co.PRR[i]
	}
	mu /= 60
	mc /= 60
	if math.Abs(mu-mc) > 0.05 {
		t.Errorf("mean PRR: unconfirmed %v vs confirmed(1 attempt) %v", mu, mc)
	}
	if co.Retransmissions != 0 {
		t.Errorf("MaxAttempts=1 produced %d retransmissions", co.Retransmissions)
	}
}

func TestConfirmedValidatesInputs(t *testing.T) {
	net, p, a := lonePair()
	bad := p
	bad.PacketIntervalS = 0
	if _, err := RunConfirmed(net, bad, a, ConfirmedConfig{}); err == nil {
		t.Error("invalid params accepted")
	}
	short := model.NewAllocation(5, p.Plan)
	if _, err := RunConfirmed(net, p, short, ConfirmedConfig{}); err == nil {
		t.Error("mis-sized allocation accepted")
	}
}

func TestHalfDuplexAcksCostReceptions(t *testing.T) {
	// A busy single-gateway cell with confirmed traffic: modelling the
	// ACK transmissions must block some uplinks and reduce delivery.
	r := rng.New(31)
	net := &model.Network{
		Devices:  geo.UniformDisc(40, 800, r),
		Gateways: []geo.Point{{}},
	}
	p := model.DefaultParams()
	p.PacketIntervalS = 12
	a := model.NewAllocation(40, p.Plan)
	for i := range a.SF {
		a.SF[i] = lora.SF9
		a.TPdBm[i] = 14
		a.Channel[i] = i % 8
	}
	base, err := RunConfirmed(net, p, a, ConfirmedConfig{
		Config: Config{PacketsPerDevice: 60, Seed: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	hd, err := RunConfirmed(net, p, a, ConfirmedConfig{
		Config:         Config{PacketsPerDevice: 60, Seed: 32},
		HalfDuplexAcks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.AckBlocked != 0 {
		t.Errorf("ACK blocking counted without the flag: %d", base.AckBlocked)
	}
	if hd.AckBlocked == 0 {
		t.Fatal("half-duplex ACKs blocked nothing on a busy cell")
	}
	var dBase, dHD int
	for i := range base.Delivered {
		dBase += base.Delivered[i]
		dHD += hd.Delivered[i]
	}
	if dHD >= dBase {
		t.Errorf("half-duplex delivery %d should be below free-ACK delivery %d", dHD, dBase)
	}
}

// TestConfirmedSingleAttemptMatchesRun is the differential proof that the
// confirmed event loop drives the shared receiver engine identically to
// the batch simulator: with MaxAttempts=1 (no retransmissions, no ACK
// feedback) and the batch run's exact randomness replayed through the
// hooks seam, every counter, per-device statistic and trace record must
// match transmission-for-transmission.
func TestConfirmedSingleAttemptMatchesRun(t *testing.T) {
	net, p, a := goldenNetwork(80, 3)
	n := net.N()
	base := Config{PacketsPerDevice: 10, Seed: 21, Trace: true}

	for _, capture := range []bool{false, true} {
		cfg := base
		cfg.Capture = capture
		batch, err := Run(net, p, a, cfg)
		if err != nil {
			t.Fatal(err)
		}

		// Replicate the batch randomness: jitters device-major, then
		// fading per (sorted transmission, gateway) — the exact draw
		// order Run uses.
		sc := new(Scratch)
		deviceSchedule(sc, net, p, a, cfg.PacketsPerDevice)
		r := rng.New(cfg.Seed)
		jit := make([][]float64, n)
		starts := make([][]float64, n)
		type txKey struct{ dev, m int }
		var order []txKey
		for i := 0; i < n; i++ {
			jit[i] = make([]float64, sc.packets[i])
			starts[i] = make([]float64, sc.packets[i])
			slack := sc.interval[i] - sc.toa[i]
			if slack < 0 {
				slack = 0
			}
			for m := range jit[i] {
				u := r.Float64()
				jit[i][m] = u
				starts[i][m] = float64(m)*sc.interval[i] + u*slack
				order = append(order, txKey{i, m})
			}
		}
		sort.Slice(order, func(x, y int) bool {
			sx, sy := starts[order[x].dev][order[x].m], starts[order[y].dev][order[y].m]
			if sx != sy {
				return sx < sy
			}
			return order[x].dev < order[y].dev
		})
		fad := make([][][]float64, n)
		for i := 0; i < n; i++ {
			fad[i] = make([][]float64, sc.packets[i])
		}
		for _, k := range order {
			row := make([]float64, net.G())
			for g := range row {
				row[g] = r.RayleighPowerGain()
			}
			fad[k.dev][k.m] = row
		}

		conf, err := RunConfirmed(net, p, a, ConfirmedConfig{
			Config:      cfg,
			MaxAttempts: 1,
			hooks: &confirmedHooks{
				jitter: func(dev, m int) float64 { return jit[dev][m] },
				fading: func(dev, m, k int) float64 { return fad[dev][m][k] },
			},
		})
		if err != nil {
			t.Fatal(err)
		}

		if conf.CollisionLosses != batch.CollisionLosses ||
			conf.CapacityDrops != batch.CapacityDrops ||
			conf.SensitivityMisses != batch.SensitivityMisses {
			t.Errorf("capture=%v counters: confirmed %d/%d/%d != batch %d/%d/%d", capture,
				conf.CollisionLosses, conf.CapacityDrops, conf.SensitivityMisses,
				batch.CollisionLosses, batch.CapacityDrops, batch.SensitivityMisses)
		}
		for i := 0; i < n; i++ {
			if conf.Delivered[i] != batch.Delivered[i] || conf.Attempts[i] != batch.Attempts[i] {
				t.Fatalf("capture=%v device %d: confirmed delivered/attempts %d/%d != batch %d/%d",
					capture, i, conf.Delivered[i], conf.Attempts[i], batch.Delivered[i], batch.Attempts[i])
			}
		}

		// The confirmed trace appends in completion order; sorting by the
		// batch key (start, device) must reproduce the batch trace exactly.
		ctr := append([]PacketRecord(nil), conf.Trace...)
		sort.Slice(ctr, func(x, y int) bool {
			if ctr[x].StartS != ctr[y].StartS {
				return ctr[x].StartS < ctr[y].StartS
			}
			return ctr[x].Device < ctr[y].Device
		})
		if len(ctr) != len(batch.Trace) {
			t.Fatalf("capture=%v trace length %d != batch %d", capture, len(ctr), len(batch.Trace))
		}
		for i := range ctr {
			if ctr[i] != batch.Trace[i] {
				t.Fatalf("capture=%v trace[%d]: confirmed %+v != batch %+v",
					capture, i, ctr[i], batch.Trace[i])
			}
		}
	}
}
