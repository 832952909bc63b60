package sim

import (
	"math"
	"testing"

	"eflora/internal/alloc"
	"eflora/internal/geo"
	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/rng"
	"eflora/internal/stats"
)

// TestModelSimConformance cross-validates the two implementations of the
// paper's physics: for every device, the analytical PRR of
// model.Evaluator (Eq. 10-13) must sit inside a confidence band around
// the packet simulator's empirical PRR estimated over many independent
// seeds. The band is the multi-seed CI half-width (z·σ̂/√seeds from
// stats.Summarize) plus a fixed modeling slack for the terms where the
// analysis is deliberately approximate (the shared-collision weighting,
// the capacity factor's independence assumption). A bug in either
// implementation — a wrong fading exponent, a dropped capacity term, a
// mis-counted collision window — moves one side and trips the bound.
func TestModelSimConformance(t *testing.T) {
	const (
		devices = 60
		gw      = 2
		seeds   = 16
		packets = 25
		// z99 is the two-sided 99% normal quantile for the per-device CI.
		z99 = 2.58
		// modelSlack absorbs the analytical approximations; calibrated on
		// the scenario below where the worst per-device gap sits near 0.05
		// (see the log line). Doubling it would let real physics bugs hide;
		// halving it flakes on honest Monte-Carlo noise.
		modelSlack = 0.08
	)
	r := rng.New(4242)
	net := &model.Network{
		Devices:  geo.UniformDisc(devices, 4000, r),
		Gateways: geo.GridGateways(gw, 4000),
	}
	p := model.DefaultParams()
	gains := model.Gains(net, p)
	a := model.NewAllocation(devices, p.Plan)
	tpLevels := p.Plan.TxPowerLevels()
	for i := 0; i < devices; i++ {
		sf, ok := model.MinFeasibleSF(gains, i, p.Plan.MaxTxPowerDBm)
		if !ok {
			sf = lora.MaxSF
		}
		a.SF[i] = sf
		a.TPdBm[i] = tpLevels[2+i%(len(tpLevels)-2)]
		a.Channel[i] = i % p.Plan.NumChannels()
	}

	ev, err := model.NewEvaluator(net, p, a, model.ModeExact)
	if err != nil {
		t.Fatal(err)
	}

	// perSeed[i] collects device i's empirical PRR from each seed.
	perSeed := make([][]float64, devices)
	for i := range perSeed {
		perSeed[i] = make([]float64, 0, seeds)
	}
	sc := new(Scratch)
	for s := 0; s < seeds; s++ {
		res, err := Run(net, p, a, Config{
			PacketsPerDevice: packets,
			Seed:             1000 + uint64(s)*7919,
			Scratch:          sc,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < devices; i++ {
			perSeed[i] = append(perSeed[i], res.PRR[i])
		}
	}

	var worst, worstCI float64
	worstDev := -1
	var devSum float64
	for i := 0; i < devices; i++ {
		sum := stats.Summarize(perSeed[i])
		ci := z99 * sum.Std / math.Sqrt(seeds)
		gap := math.Abs(ev.PRR(i) - sum.Mean)
		devSum += gap
		if gap > worst {
			worst, worstCI, worstDev = gap, ci, i
		}
		if gap > modelSlack+ci {
			t.Errorf("device %d (SF%d ch%d): model PRR %.4f vs sim %.4f ± %.4f (gap %.4f, slack %.2f)",
				i, a.SF[i], a.Channel[i], ev.PRR(i), sum.Mean, ci, gap, modelSlack)
		}
	}
	t.Logf("worst per-device gap %.4f (device %d, CI ±%.4f); mean gap %.4f",
		worst, worstDev, worstCI, devSum/devices)

	// The network-mean PRR averages out per-device modeling error, so it
	// must agree much tighter than any single device.
	var modelMean float64
	simAll := make([]float64, 0, devices*seeds)
	for i := 0; i < devices; i++ {
		modelMean += ev.PRR(i)
		simAll = append(simAll, perSeed[i]...)
	}
	modelMean /= devices
	simMean := stats.Mean(simAll)
	if gap := math.Abs(modelMean - simMean); gap > 0.02 {
		t.Errorf("network-mean PRR: model %.4f vs sim %.4f (gap %.4f > 0.02)", modelMean, simMean, gap)
	}
}

// TestModelSimConformancePaperRegime checks the network-mean PRR at three
// of the paper's operating points: 600 devices at 5 % duty, under an
// RS-LoRa allocation, with the simulator averaged over 4 seeds × 40
// packets, on the 5 km disc with 3 gateways (Fig. 6) or 5 (Fig. 4), and
// on Fig. 9's 2.5 km disc with 3 gateways. Each row bounds model − sim on
// either side.
//
// At 3 gateways the model is pessimistic: over deployments 1–10 its mean
// PRR sat 0.052–0.064 below the simulator's (EF-LoRa allocations of
// deployments 1–3 gave 0.052–0.057), and the simulator's seed-to-seed
// spread stayed under 0.004. The known candidates for that gap are the
// approximations named above, the shared-collision weighting and θ's
// independence assumption. So the band is one-sided: the model may sit
// up to 0.08 below the simulator, above every measured deployment, but no
// more than 0.02 above it, the light-load test's bound. Dropping the
// capacity factor (θ forced to 1) moves the gap to +0.033 and fails it.
//
// At 5 gateways the gap is small: −0.0068 to −0.0100 over deployments
// 1–10, with a seed spread of at most 0.003, and −0.0100 on deployment 1.
// Here the 3-gateway band would miss a dropped capacity factor: θ forced
// to 1 moves the gap only to +0.0079. A doubled collision exposure moves
// it to −0.098. The band [−0.02, 0] fails both.
//
// On the 2.5 km disc the gap is the largest of the three: −0.168 on
// deployment 1 (model 0.191, sim 0.358) and −0.142 to −0.182 over
// deployments 1–10, with a seed spread of at most 0.003. θ forced to 1
// moves it to +0.074, and a doubled collision exposure in eeCompute to
// −0.233 (−0.219 to −0.233 over deployments 1–3). The band [−0.20,
// +0.02] fails both.
func TestModelSimConformancePaperRegime(t *testing.T) {
	const (
		devices = 600
		seeds   = 4
		packets = 40
	)
	for _, tc := range []struct {
		name    string
		gw      int
		radiusM float64
		// maxBelow and maxAbove bound model − sim on either side.
		maxBelow, maxAbove float64
	}{
		{"fig6-600x3", 3, 5000, 0.08, 0.02},
		{"fig4-600x5", 5, 5000, 0.02, 0},
		{"fig9-600x3", 3, 2500, 0.20, 0.02},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := &model.Network{
				Devices:  geo.UniformDisc(devices, tc.radiusM, rng.New(1)),
				Gateways: geo.GridGateways(tc.gw, tc.radiusM),
			}
			p := model.DefaultParams()
			p.TrafficDutyCycle = 0.05
			a, err := alloc.RSLoRa{}.Allocate(net, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := model.NewEvaluator(net, p, a, model.ModeExact)
			if err != nil {
				t.Fatal(err)
			}
			var modelMean float64
			for i := 0; i < devices; i++ {
				modelMean += ev.PRR(i)
			}
			modelMean /= devices

			sc := new(Scratch)
			simMeans := make([]float64, 0, seeds)
			for s := uint64(1); s <= seeds; s++ {
				res, err := Run(net, p, a, Config{PacketsPerDevice: packets, Seed: s, Scratch: sc})
				if err != nil {
					t.Fatal(err)
				}
				simMeans = append(simMeans, stats.Mean(res.PRR))
			}
			simMean := stats.Mean(simMeans)
			gap := modelMean - simMean
			t.Logf("network-mean PRR: model %.4f, sim %.4f (per seed %.4f); model - sim = %+.4f",
				modelMean, simMean, simMeans, gap)
			if gap < -tc.maxBelow || gap > tc.maxAbove {
				t.Errorf("network-mean PRR: model %.4f vs sim %.4f (model - sim = %+.4f, want within [-%.2f, +%.2f])",
					modelMean, simMean, gap, tc.maxBelow, tc.maxAbove)
			}
		})
	}
}
