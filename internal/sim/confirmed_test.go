package sim

import (
	"fmt"
	"math"
	"strings"
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
	// An out-of-range device abandons every packet after its last attempt.
	net := &model.Network{
		Devices:  []geo.Point{{X: 60000, Y: 0}},
		Gateways: []geo.Point{{}},
	}
	p := model.DefaultParams()
	a := model.NewAllocation(1, p.Plan)
	a.SF[0] = lora.SF12
	a.TPdBm[0] = 14
	res, err := runConfirmed(net, p, a, ConfirmedConfig{
		Config: Config{PacketsPerDevice: 20, Seed: 5},
	}, 0, 3)
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

// TestConfirmedSummaryCountsPackets requires the confirmed summary to
// name the transmissions and to divide the deliveries by the generated
// packets, as PRR does, not by the transmissions that retries inflate.
func TestConfirmedSummaryCountsPackets(t *testing.T) {
	net, p, a := goldenNetwork(120, 2)
	res, err := RunConfirmed(net, p, a, ConfirmedConfig{Config: Config{PacketsPerDevice: 10, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retransmissions == 0 {
		t.Fatal("no retransmissions: transmissions equal packets")
	}
	packets, transmissions, delivered := 0, 0, 0
	for i := range res.Generated {
		packets += res.Generated[i]
		transmissions += res.Attempts[i]
		delivered += res.Delivered[i]
	}
	want := fmt.Sprintf("packets=%d transmissions=%d delivered=%d prr=%.3f ",
		packets, transmissions, delivered, float64(delivered)/float64(packets))
	if got := res.Summary(); !strings.HasPrefix(got, want) {
		t.Errorf("summary %q, want prefix %q", got, want)
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
	// With one attempt per packet confirmed traffic degenerates to one
	// try per packet; aggregate PRR must match unconfirmed traffic on the
	// same network (TestConfirmedSingleAttemptMatchesRun pins it exactly).
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
	co, err := runConfirmed(net, p, a, ConfirmedConfig{
		Config: Config{PacketsPerDevice: 200, Seed: 23},
	}, 0, 1)
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
		t.Errorf("one attempt per packet produced %d retransmissions", co.Retransmissions)
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

// TestConfirmedSingleAttemptMatchesRun is the differential proof that
// confirmed traffic runs Run's loop: with one attempt per packet and
// half-duplex ACKs off nothing retries, so on every golden variant, at
// windows of 0.25 s, 1 s and 2 s, every Result field but RetxAvgPowerW
// (the ETX view Run adds) must equal Run's pinned golden digest, the trace
// and the SNR measurements included.
func TestConfirmedSingleAttemptMatchesRun(t *testing.T) {
	want := goldenDigests(t)
	for _, v := range goldenVariants() {
		un, err := Run(v.net, v.p, v.a, v.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, win := range []float64{0.25, 1, 2} {
			co, err := runConfirmed(v.net, v.p, v.a, ConfirmedConfig{Config: v.cfg.withDefaults()}, win, 1)
			if err != nil {
				t.Fatal(err)
			}
			if co.Retransmissions != 0 || co.AckBlocked != 0 {
				t.Fatalf("%s window=%g: %d retransmissions, %d ACK-blocked", v.name, win, co.Retransmissions, co.AckBlocked)
			}
			co.RetxAvgPowerW = un.RetxAvgPowerW
			if got := resultDigest(&co.Result); got != want[v.name] {
				t.Errorf("%s window=%g: digest %s != Run's golden %s", v.name, win, got, want[v.name])
			}
		}
	}
}

// BenchmarkRunConfirmed times a Fig. 8-shaped confirmed run on a warm
// Scratch: 300 devices on the 5 km disc with 3 gateways, 5 % duty, the
// minimal feasible SF on 8 channels, 20 packets per device.
func BenchmarkRunConfirmed(b *testing.B) {
	const devices = 300
	net := &model.Network{
		Devices:  geo.UniformDisc(devices, 5000, rng.New(1)),
		Gateways: geo.GridGateways(3, 5000),
	}
	p := model.DefaultParams()
	p.TrafficDutyCycle = 0.05
	gains := model.Gains(net, p)
	a := model.NewAllocation(devices, p.Plan)
	for i := range a.SF {
		sf, ok := model.MinFeasibleSF(gains, i, p.Plan.MaxTxPowerDBm)
		if !ok {
			sf = lora.MaxSF
		}
		a.SF[i] = sf
		a.TPdBm[i] = p.Plan.MaxTxPowerDBm
		a.Channel[i] = i % p.Plan.NumChannels()
	}
	cfg := ConfirmedConfig{Config: Config{PacketsPerDevice: 20, Seed: 5, Scratch: new(Scratch)}}
	if _, err := RunConfirmed(net, p, a, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunConfirmed(net, p, a, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
