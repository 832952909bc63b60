package sim

import (
	"fmt"
	"math"
	"testing"
	"time"

	"eflora/internal/geo"
	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/rng"
)

func lonePair() (*model.Network, model.Params, model.Allocation) {
	net := &model.Network{
		Devices:  []geo.Point{{X: 300, Y: 0}},
		Gateways: []geo.Point{{}},
	}
	p := model.DefaultParams()
	a := model.NewAllocation(1, p.Plan)
	a.SF[0] = lora.SF7
	a.TPdBm[0] = 14
	return net, p, a
}

func TestLoneDeviceNearGatewayDeliversAlmostEverything(t *testing.T) {
	net, p, a := lonePair()
	res, err := Run(net, p, a, Config{PacketsPerDevice: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts[0] != 500 {
		t.Fatalf("attempts = %d", res.Attempts[0])
	}
	// No contention: only deep Rayleigh fades can lose packets. At 300 m
	// the margin is large, so PRR should be near 1.
	if res.PRR[0] < 0.95 {
		t.Errorf("lone-device PRR = %v, want > 0.95 (%s)", res.PRR[0], res.Summary())
	}
	if res.CollisionLosses != 0 {
		t.Errorf("lone device cannot collide, got %d collisions", res.CollisionLosses)
	}
	if res.EE[0] <= 0 {
		t.Errorf("EE = %v", res.EE[0])
	}
}

func TestOutOfRangeDeviceDeliversNothing(t *testing.T) {
	net := &model.Network{
		Devices:  []geo.Point{{X: 80000, Y: 0}},
		Gateways: []geo.Point{{}},
	}
	p := model.DefaultParams()
	a := model.NewAllocation(1, p.Plan)
	a.SF[0] = lora.SF12
	a.TPdBm[0] = p.Plan.MaxTxPowerDBm
	res, err := Run(net, p, a, Config{PacketsPerDevice: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered[0] != 0 {
		t.Errorf("80 km device delivered %d packets", res.Delivered[0])
	}
	if res.SensitivityMisses == 0 {
		t.Error("expected sensitivity misses to be counted")
	}
	if res.EE[0] != 0 {
		t.Errorf("EE of dead link = %v, want 0", res.EE[0])
	}
}

func TestDeterministicForSameSeed(t *testing.T) {
	r := rng.New(3)
	net := &model.Network{
		Devices:  geo.UniformDisc(50, 2000, r),
		Gateways: geo.GridGateways(2, 2000),
	}
	p := model.DefaultParams()
	a := model.NewAllocation(50, p.Plan)
	for i := range a.SF {
		a.SF[i] = lora.SF8
		a.TPdBm[i] = 12
		a.Channel[i] = i % 8
	}
	r1, err := Run(net, p, a, Config{PacketsPerDevice: 40, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(net, p, a, Config{PacketsPerDevice: 40, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Delivered {
		if r1.Delivered[i] != r2.Delivered[i] {
			t.Fatalf("same seed diverged at device %d", i)
		}
	}
	r3, err := Run(net, p, a, Config{PacketsPerDevice: 40, Seed: 78})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range r1.Delivered {
		if r1.Delivered[i] != r3.Delivered[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical outcomes")
	}
}

func TestCollisionsDestroyCoSFCoChannelOverlap(t *testing.T) {
	// Two devices, same SF and channel, reporting so often that their
	// packets overlap frequently: PRR must drop well below the lone case.
	net := &model.Network{
		Devices:  []geo.Point{{X: 100, Y: 0}, {X: -100, Y: 0}},
		Gateways: []geo.Point{{}},
	}
	p := model.DefaultParams()
	p.PacketIntervalS = 2 // ToA(SF12) ~1.8 s: near-certain overlap
	a := model.NewAllocation(2, p.Plan)
	for i := range a.SF {
		a.SF[i] = lora.SF12
		a.TPdBm[i] = 14
		a.Channel[i] = 0
	}
	res, err := Run(net, p, a, Config{PacketsPerDevice: 200, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.CollisionLosses == 0 {
		t.Fatal("expected collisions")
	}
	if res.PRR[0] > 0.5 || res.PRR[1] > 0.5 {
		t.Errorf("PRR = %v, %v; expected heavy collision losses (%s)",
			res.PRR[0], res.PRR[1], res.Summary())
	}
}

func TestDifferentChannelsDoNotCollide(t *testing.T) {
	net := &model.Network{
		Devices:  []geo.Point{{X: 100, Y: 0}, {X: -100, Y: 0}},
		Gateways: []geo.Point{{}},
	}
	p := model.DefaultParams()
	p.PacketIntervalS = 2
	a := model.NewAllocation(2, p.Plan)
	for i := range a.SF {
		a.SF[i] = lora.SF12
		a.TPdBm[i] = 14
		a.Channel[i] = i // distinct channels
	}
	res, err := Run(net, p, a, Config{PacketsPerDevice: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.CollisionLosses != 0 {
		t.Errorf("cross-channel packets collided %d times", res.CollisionLosses)
	}
}

func TestDifferentSFsDoNotCollide(t *testing.T) {
	net := &model.Network{
		Devices:  []geo.Point{{X: 100, Y: 0}, {X: -100, Y: 0}},
		Gateways: []geo.Point{{}},
	}
	p := model.DefaultParams()
	p.PacketIntervalS = 2
	a := model.NewAllocation(2, p.Plan)
	a.SF[0], a.SF[1] = lora.SF11, lora.SF12
	a.TPdBm[0], a.TPdBm[1] = 14, 14
	res, err := Run(net, p, a, Config{PacketsPerDevice: 200, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.CollisionLosses != 0 {
		t.Errorf("orthogonal SFs collided %d times", res.CollisionLosses)
	}
}

func TestCaptureRescuesStrongerPacket(t *testing.T) {
	// A very close device vs a far device, same SF/channel, chatty: with
	// capture the close one survives collisions; without, both die.
	net := &model.Network{
		Devices:  []geo.Point{{X: 50, Y: 0}, {X: 2500, Y: 0}},
		Gateways: []geo.Point{{}},
	}
	p := model.DefaultParams()
	p.PacketIntervalS = 2
	a := model.NewAllocation(2, p.Plan)
	for i := range a.SF {
		a.SF[i] = lora.SF12
		a.TPdBm[i] = 14
		a.Channel[i] = 0
	}
	noCap, err := Run(net, p, a, Config{PacketsPerDevice: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	withCap, err := Run(net, p, a, Config{PacketsPerDevice: 300, Seed: 7, Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	if withCap.PRR[0] <= noCap.PRR[0] {
		t.Errorf("capture should rescue the strong device: %v vs %v",
			withCap.PRR[0], noCap.PRR[0])
	}
}

func TestGatewayCapacityLimitsConcurrentLocks(t *testing.T) {
	// 30 chatty devices on distinct (SF, channel) pairs would be fully
	// orthogonal, but a capacity-2 gateway must drop most of them.
	r := rng.New(8)
	net := &model.Network{
		Devices:  geo.UniformDisc(30, 500, r),
		Gateways: []geo.Point{{}},
	}
	p := model.DefaultParams()
	p.PacketIntervalS = 10
	p.GatewayCapacity = 2
	a := model.NewAllocation(30, p.Plan)
	for i := range a.SF {
		a.SF[i] = lora.SF10 + lora.SF(i%3) // long packets
		a.TPdBm[i] = 14
		a.Channel[i] = i % 8
	}
	res, err := Run(net, p, a, Config{PacketsPerDevice: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.CapacityDrops == 0 {
		t.Errorf("expected capacity drops at a 2-demodulator gateway (%s)", res.Summary())
	}
	big := p
	big.GatewayCapacity = 1000
	resBig, err := Run(net, big, a, Config{PacketsPerDevice: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if resBig.CapacityDrops != 0 {
		t.Errorf("huge capacity still dropped %d", resBig.CapacityDrops)
	}
	sumSmall, sumBig := 0, 0
	for i := range res.Delivered {
		sumSmall += res.Delivered[i]
		sumBig += resBig.Delivered[i]
	}
	if sumSmall >= sumBig {
		t.Errorf("capacity-2 delivered %d >= capacity-1000 delivered %d", sumSmall, sumBig)
	}
}

func TestOverCapacityTransmissionStillCollides(t *testing.T) {
	// Two chatty same-SF same-channel devices at a 1-demodulator gateway:
	// whenever their packets overlap, the later one finds no free
	// demodulator — but its RF energy must still destroy the locked
	// reception. A capacity check that short-circuits the collision scan
	// would instead let the locked packet sail through and report an
	// inflated PRR.
	net := &model.Network{
		Devices:  []geo.Point{{X: 100, Y: 0}, {X: -100, Y: 0}},
		Gateways: []geo.Point{{}},
	}
	p := model.DefaultParams()
	p.PacketIntervalS = 2 // ToA(SF12) ~1.8 s: near-certain overlap
	p.GatewayCapacity = 1
	a := model.NewAllocation(2, p.Plan)
	for i := range a.SF {
		a.SF[i] = lora.SF12
		a.TPdBm[i] = 14
		a.Channel[i] = 0
	}
	res, err := Run(net, p, a, Config{PacketsPerDevice: 200, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.CapacityDrops == 0 {
		t.Fatalf("expected capacity drops at a 1-demodulator gateway (%s)", res.Summary())
	}
	if res.CollisionLosses == 0 {
		t.Fatalf("over-capacity transmissions must still collide with locked receptions (%s)", res.Summary())
	}
	if res.PRR[0] > 0.5 || res.PRR[1] > 0.5 {
		t.Errorf("PRR = %v, %v; a 1-demodulator gateway must not outperform the collision channel (%s)",
			res.PRR[0], res.PRR[1], res.Summary())
	}
}

func TestCaptureThresholdZeroIsNotReplacedByDefault(t *testing.T) {
	z := 0.0
	cfg := (Config{CaptureThresholdDB: &z}).withDefaults()
	if lin := cfg.captureLin(); lin != 1 {
		t.Fatalf("explicit 0 dB threshold resolved to ratio %v, want 1", lin)
	}
	def := (Config{}).withDefaults()
	if lin, want := def.captureLin(), lora.DBToLinear(DefaultCaptureThresholdDB); lin != want {
		t.Fatalf("unset threshold resolved to ratio %v, want %v", lin, want)
	}
}

func TestZeroCaptureThresholdCapturesOnAnyAdvantage(t *testing.T) {
	// Two devices at comparable distances: their received-power ratio is
	// usually inside (0, 6) dB, where a 6 dB threshold destroys both
	// packets but a 0 dB (strongest-wins) threshold always rescues one.
	net := &model.Network{
		Devices:  []geo.Point{{X: 100, Y: 0}, {X: -150, Y: 0}},
		Gateways: []geo.Point{{}},
	}
	p := model.DefaultParams()
	p.PacketIntervalS = 2
	a := model.NewAllocation(2, p.Plan)
	for i := range a.SF {
		a.SF[i] = lora.SF12
		a.TPdBm[i] = 14
		a.Channel[i] = 0
	}
	run := func(th *float64) int {
		res, err := Run(net, p, a, Config{
			PacketsPerDevice: 300, Seed: 7, Capture: true, CaptureThresholdDB: th,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Delivered[0] + res.Delivered[1]
	}
	zero := 0.0
	if dz, d6 := run(&zero), run(nil); dz <= d6 {
		t.Errorf("0 dB capture delivered %d <= 6 dB capture %d; strongest-wins must rescue more overlaps", dz, d6)
	}
}

func TestSecondGatewayImprovesDelivery(t *testing.T) {
	r := rng.New(10)
	devices := geo.UniformDisc(60, 3500, r)
	p := model.DefaultParams()
	run := func(gws []geo.Point) float64 {
		net := &model.Network{Devices: devices, Gateways: gws}
		a := model.NewAllocation(60, p.Plan)
		for i := range a.SF {
			a.SF[i] = lora.SF9
			a.TPdBm[i] = 8
			a.Channel[i] = i % 8
		}
		res, err := Run(net, p, a, Config{PacketsPerDevice: 60, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, d := range res.Delivered {
			total += d
		}
		return float64(total)
	}
	one := run([]geo.Point{{X: -1500, Y: 0}})
	two := run([]geo.Point{{X: -1500, Y: 0}, {X: 1500, Y: 0}})
	if two <= one {
		t.Errorf("two gateways delivered %v <= one gateway %v", two, one)
	}
}

func TestEnergyAccounting(t *testing.T) {
	net, p, a := lonePair()
	res, err := Run(net, p, a, Config{PacketsPerDevice: 100, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	toa := p.TimeOnAir(a.SF[0])
	wantTx := p.Profile.TransmissionEnergy(a.TPdBm[0], toa) * 100
	if math.Abs(res.TxEnergyJ[0]-wantTx) > 1e-9 {
		t.Errorf("TxEnergyJ = %v, want %v", res.TxEnergyJ[0], wantTx)
	}
	if res.TotalEnergyJ[0] <= res.TxEnergyJ[0] {
		t.Error("total energy should include sleep on top of TX")
	}
	if res.AvgPowerW[0] <= 0 || res.SimTimeS <= 0 {
		t.Errorf("AvgPower %v, SimTime %v", res.AvgPowerW[0], res.SimTimeS)
	}
	// EE consistency: delivered bits / tx energy.
	wantEE := p.AppPayloadBits() * float64(res.Delivered[0]) / res.TxEnergyJ[0]
	if math.Abs(res.EE[0]-wantEE) > 1e-9 {
		t.Errorf("EE = %v, want %v", res.EE[0], wantEE)
	}
}

func TestRunValidatesInputs(t *testing.T) {
	net, p, a := lonePair()
	bad := p
	bad.PacketIntervalS = 0
	if _, err := Run(net, bad, a, Config{}); err == nil {
		t.Error("invalid params accepted")
	}
	short := model.NewAllocation(5, p.Plan)
	if _, err := Run(net, p, short, Config{}); err == nil {
		t.Error("mis-sized allocation accepted")
	}
	empty := &model.Network{}
	if _, err := Run(empty, p, a, Config{}); err == nil {
		t.Error("empty network accepted")
	}
}

// TestRunRejectsUnusableIntervals feeds reporting intervals that are not
// finite, or finite but so long that the horizon overflows, or so mixed
// that one device would send more packets than an int can count. Each
// must be refused by Run and RunConfirmed — not hang (the windowed
// schedule stepping towards an infinite horizon) or return an infinite
// SimTimeS and NaN powers.
func TestRunRejectsUnusableIntervals(t *testing.T) {
	net, p, a := lonePair()
	two := &model.Network{Devices: []geo.Point{{X: 300}, {X: 400}}, Gateways: net.Gateways}
	a2 := model.NewAllocation(2, p.Plan)
	type input struct {
		name string
		net  *model.Network
		p    model.Params
		a    model.Allocation
	}
	var inputs []input
	for _, iv := range []float64{math.NaN(), math.Inf(1), 1e308} {
		pp := p
		pp.PacketIntervalS = iv
		inputs = append(inputs, input{fmt.Sprintf("PacketIntervalS=%g", iv), net, pp, a})
		ivNet := *net
		ivNet.IntervalS = []float64{iv}
		inputs = append(inputs, input{fmt.Sprintf("IntervalS=%g", iv), &ivNet, p, a})
	}
	mixed := *two
	mixed.IntervalS = []float64{1, 1e300}
	inputs = append(inputs, input{"IntervalS=1,1e300", &mixed, p, a2})
	for _, in := range inputs {
		errs := make(chan [2]error, 1)
		go func() {
			_, errRun := Run(in.net, in.p, in.a, Config{PacketsPerDevice: 10, Seed: 1})
			_, errConf := RunConfirmed(in.net, in.p, in.a, ConfirmedConfig{Config: Config{PacketsPerDevice: 10, Seed: 1}})
			errs <- [2]error{errRun, errConf}
		}()
		select {
		case e := <-errs:
			if e[0] == nil {
				t.Errorf("%s: Run accepted it", in.name)
			}
			if e[1] == nil {
				t.Errorf("%s: RunConfirmed accepted it", in.name)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: no answer after 20 s", in.name)
		}
	}
}

func TestSimulatorAgreesWithModelOnPRRShape(t *testing.T) {
	// Model vs simulator cross-validation: per-device PRR from the
	// analytical model should track simulated PRR within a loose
	// tolerance on an interference-light network.
	r := rng.New(13)
	net := &model.Network{
		Devices:  geo.UniformDisc(40, 2500, r),
		Gateways: geo.GridGateways(2, 2500),
	}
	p := model.DefaultParams()
	a := model.NewAllocation(40, p.Plan)
	gains := model.Gains(net, p)
	for i := range a.SF {
		sf, ok := model.MinFeasibleSF(gains, i, 14)
		if !ok {
			sf = lora.MaxSF
		}
		a.SF[i] = sf
		a.TPdBm[i] = 14
		a.Channel[i] = i % 8
	}
	ev, err := model.NewEvaluator(net, p, a, model.ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(net, p, a, Config{PacketsPerDevice: 300, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	// Paper Eq. 10 multiplies P{SNR>=th} and P{rx>=ss} as if independent,
	// while physically both apply to the same fading draw; the model is
	// therefore systematically a bit pessimistic. Require agreement of
	// the mean within that bias and a strong positive correlation of the
	// per-device values.
	var sumModel, sumSim float64
	mPRR := make([]float64, net.N())
	for i := 0; i < net.N(); i++ {
		mPRR[i] = ev.PRR(i)
		sumModel += mPRR[i]
		sumSim += res.PRR[i]
	}
	meanModel, meanSim := sumModel/40, sumSim/40
	if math.Abs(meanModel-meanSim) > 0.3 {
		t.Errorf("mean PRR: model %v vs sim %v", meanModel, meanSim)
	}
	if meanModel > meanSim+0.05 {
		t.Errorf("model should not be optimistic vs sim: %v > %v", meanModel, meanSim)
	}
	var cov, varM, varS float64
	for i := 0; i < net.N(); i++ {
		dm, ds := mPRR[i]-meanModel, res.PRR[i]-meanSim
		cov += dm * ds
		varM += dm * dm
		varS += ds * ds
	}
	if varM > 0 && varS > 0 {
		corr := cov / math.Sqrt(varM*varS)
		if corr < 0.5 {
			t.Errorf("model-vs-sim PRR correlation = %v, want > 0.5", corr)
		}
	}
}
