package sim

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"eflora/internal/geo"
	"eflora/internal/golden"
	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/rng"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenNetwork builds the fixed topology and allocation the golden
// digests are pinned to.
func goldenNetwork(n, g int) (*model.Network, model.Params, model.Allocation) {
	r := rng.New(42)
	net := &model.Network{
		Devices:  geo.UniformDisc(n, 4000, r),
		Gateways: geo.GridGateways(g, 4000),
	}
	p := model.DefaultParams()
	// Duty-cycle traffic on two channels puts the run deep into the
	// collision-limited regime, so the golden digests exercise the
	// collision scan, the capture rule and the demodulator-capacity path.
	p.TrafficDutyCycle = 0.05
	gains := model.Gains(net, p)
	a := model.NewAllocation(n, p.Plan)
	tpLevels := p.Plan.TxPowerLevels()
	for i := 0; i < n; i++ {
		sf, ok := model.MinFeasibleSF(gains, i, p.Plan.MaxTxPowerDBm)
		if !ok {
			sf = lora.MaxSF
		}
		a.SF[i] = sf
		a.TPdBm[i] = tpLevels[i%len(tpLevels)]
		a.Channel[i] = i % 2
	}
	return net, p, a
}

// resultDigest serializes every field of a Result exactly (bit-level for
// floats) and hashes it.
func resultDigest(res *Result) string {
	trace := make([]string, len(res.Trace))
	for i, pr := range res.Trace {
		trace[i] = fmt.Sprintf("%d,%s,%d,%d", pr.Device, golden.Float(pr.StartS), pr.Outcome, pr.Gateway)
	}
	return golden.Digest(
		golden.Ints(res.Attempts),
		golden.Ints(res.Delivered),
		golden.Floats(res.PRR),
		golden.Floats(res.TxEnergyJ),
		golden.Floats(res.TotalEnergyJ),
		golden.Floats(res.EE),
		golden.Floats(res.AvgPowerW),
		golden.Floats(res.RetxAvgPowerW),
		golden.Float(res.SimTimeS),
		fmt.Sprintf("%d %d %d", res.CollisionLosses, res.CapacityDrops, res.SensitivityMisses),
		strings.Join(trace, "\n"),
		golden.Floats(res.MaxSNRdB),
	)
}

// goldenVariant is one pinned simulator input: a deployment, its
// parameters and allocation, and the run configuration.
type goldenVariant struct {
	name string
	net  *model.Network
	p    model.Params
	a    model.Allocation
	cfg  Config
}

// goldenVariants lists the inputs whose digests testdata/
// golden_determinism.txt pins, in file order. Beyond the two collision
// rules on the duty-cycle network:
//
//   - zero-slack reports every period below the longest time-on-air, so
//     the devices whose air time exceeds it have no jitter span and start
//     at exactly the same instants: their order is the (start, device)
//     tie-break alone;
//   - per-device-interval gives every device its own reporting period,
//     so devices send different packet counts over the shared horizon;
//   - zero-slack-groups ties smaller groups of devices, each on its own
//     period below its air time.
func goldenVariants() []goldenVariant {
	net, p, a := goldenNetwork(120, 4)
	base := Config{PacketsPerDevice: 12, Seed: 7, Trace: true, MeasureSNR: true}
	capture := base
	capture.Capture = true

	// Every SF in turn, reporting just below SF12's air time: the SF12
	// devices have no jitter span and tie at every period start.
	za := model.NewAllocation(net.N(), p.Plan)
	for i := range za.SF {
		za.SF[i] = lora.SF7 + lora.SF(i%6)
		za.TPdBm[i] = a.TPdBm[i]
		za.Channel[i] = a.Channel[i]
	}
	zp := p
	zp.TrafficDutyCycle = 0
	zp.PacketIntervalS = 0.9 * streamMaxToA(p, za)

	// Every device below its air time on one of ten periods: groups of
	// about twelve devices tie, few enough that a group fits the bucket
	// pass's insertion-sort limit.
	tieNet := *net
	tieNet.IntervalS = make([]float64, net.N())
	for i := range tieNet.IntervalS {
		tieNet.IntervalS[i] = 0.5*streamMaxToA(p, a) + 0.002*float64(i%10)
	}

	ivNet := *net
	ivNet.IntervalS = make([]float64, net.N())
	r := rng.New(99)
	for i := range ivNet.IntervalS {
		ivNet.IntervalS[i] = 20 + 180*r.Float64()
	}
	return []goldenVariant{
		{"base", net, p, a, base},
		{"capture", net, p, a, capture},
		{"zero-slack", net, zp, za, base},
		{"per-device-interval", &ivNet, p, a, capture},
		{"zero-slack-groups", &tieNet, p, a, base},
	}
}

// TestGoldenDeterminism pins the simulator's full output — every
// per-device statistic, counter and trace record — to digests checked
// into testdata/, so hot-path refactors cannot change outputs without
// failing this test.
func TestGoldenDeterminism(t *testing.T) {
	var out strings.Builder
	for _, v := range goldenVariants() {
		res, err := Run(v.net, v.p, v.a, v.cfg)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		fmt.Fprintf(&out, "%s %s\n", v.name, resultDigest(res))
	}
	golden.Check(t, "testdata/golden_determinism.txt", out.String(), *update)
}

// TestGoldenDeterminismConfirmed pins confirmed traffic the same way, at
// four attempts per packet with half-duplex ACKs.
func TestGoldenDeterminismConfirmed(t *testing.T) {
	net, p, a := goldenNetwork(60, 2)
	res, err := runConfirmed(net, p, a, ConfirmedConfig{
		Config:         Config{PacketsPerDevice: 8, Seed: 11}.withDefaults(),
		HalfDuplexAcks: true,
	}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := golden.Digest(
		resultDigest(&res.Result),
		golden.Ints(res.Generated),
		fmt.Sprintf("%d %d %d", res.Retransmissions, res.Abandoned, res.AckBlocked),
	)
	golden.Check(t, "testdata/golden_confirmed.txt", "confirmed "+d+"\n", *update)
}
