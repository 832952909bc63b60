package sim

import (
	"math"
	"testing"

	"eflora/internal/geo"
	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/rng"
)

// zeroSlackKnob, set in fuzzScenario's knobs, makes the reporting period
// shorter than the longest time-on-air: the devices with the longest air
// time get no jitter span and start at exactly the same instants.
const zeroSlackKnob = 1 << 8

// fuzzScenario derives a bounded random topology, parameter variant and
// allocation from (seed, knobs) — the shared generator behind the native
// fuzz targets below. All sizes are clamped so one fuzz iteration stays in
// the milliseconds.
func fuzzScenario(seed, knobs uint64) (*model.Network, model.Params, model.Allocation) {
	r := rng.New(seed)
	p := model.DefaultParams()
	switch knobs % 3 {
	case 1:
		p.TrafficDutyCycle = 0.02 + 0.08*r.Float64()
	case 2:
		p.PacketIntervalS = 10 + 100*r.Float64()
	}
	net := &model.Network{
		Devices:  geo.UniformDisc(20+r.Intn(60), 500+5000*r.Float64(), r),
		Gateways: geo.GridGateways(1+r.Intn(4), 4000),
	}
	a := model.NewAllocation(net.N(), p.Plan)
	tpLevels := p.Plan.TxPowerLevels()
	for i := range a.SF {
		a.SF[i] = lora.SF7 + lora.SF(r.Intn(6))
		a.TPdBm[i] = tpLevels[r.Intn(len(tpLevels))]
		a.Channel[i] = r.Intn(p.Plan.NumChannels())
	}
	if knobs&zeroSlackKnob != 0 {
		p.TrafficDutyCycle = 0
		p.PacketIntervalS = (0.3 + 0.7*r.Float64()) * streamMaxToA(p, a)
	}
	return net, p, a
}

// checkRunInvariants asserts the physical invariants every simulation run
// must satisfy, whatever the topology and traffic.
func checkRunInvariants(t *testing.T, net *model.Network, res *Result) {
	t.Helper()
	totalDelivered := 0
	for i := 0; i < net.N(); i++ {
		if res.Delivered[i] < 0 || res.Delivered[i] > res.Attempts[i] {
			t.Fatalf("device %d: delivered %d of %d attempts", i, res.Delivered[i], res.Attempts[i])
		}
		if res.PRR[i] < 0 || res.PRR[i] > 1 {
			t.Fatalf("device %d: PRR %v", i, res.PRR[i])
		}
		if res.TxEnergyJ[i] <= 0 || res.TotalEnergyJ[i] < res.TxEnergyJ[i] {
			t.Fatalf("device %d: energy %v/%v", i, res.TxEnergyJ[i], res.TotalEnergyJ[i])
		}
		if res.RetxAvgPowerW[i] < res.AvgPowerW[i]-1e-15 {
			t.Fatalf("device %d: retx power %v below plain %v", i, res.RetxAvgPowerW[i], res.AvgPowerW[i])
		}
		if math.IsNaN(res.EE[i]) || res.EE[i] < 0 {
			t.Fatalf("device %d: EE %v", i, res.EE[i])
		}
		totalDelivered += res.Delivered[i]
	}
	if res.Trace != nil {
		// The trace must agree with the aggregate counters.
		counts := OutcomeCounts(res.Trace)
		if counts[OutcomeDelivered] != totalDelivered {
			t.Fatalf("trace delivered %d vs result %d", counts[OutcomeDelivered], totalDelivered)
		}
		totalTrace := 0
		for _, c := range counts {
			totalTrace += c
		}
		totalAttempts := 0
		for _, at := range res.Attempts {
			totalAttempts += at
		}
		if totalTrace != totalAttempts {
			t.Fatalf("trace %d records vs %d attempts", totalTrace, totalAttempts)
		}
	}
	if res.SimTimeS <= 0 {
		t.Fatalf("sim time %v", res.SimTimeS)
	}
}

// FuzzSimInvariants drives the simulator across fuzz-chosen topologies,
// allocations and traffic settings, checking the physical invariants that
// must hold in every run, that a scratch-reusing run is bit-identical to
// a cold one, and that a run at the derived window is bit-identical to
// one whose windows are half the longest time-on-air (so the longest
// receptions always straddle a window boundary).
func FuzzSimInvariants(f *testing.F) {
	for trial := uint64(0); trial < 12; trial++ {
		f.Add(uint64(77001)+trial, trial)
		f.Add(uint64(78001)+trial, trial|zeroSlackKnob)
	}
	sc := new(Scratch)
	f.Fuzz(func(t *testing.T, seed, knobs uint64) {
		net, p, a := fuzzScenario(seed, knobs)
		r := rng.New(seed ^ 0x9e3779b97f4a7c15)
		cfg := Config{
			PacketsPerDevice: 10 + r.Intn(20),
			Seed:             knobs,
			Capture:          knobs%2 == 0,
			Trace:            true,
		}
		res, err := Run(net, p, a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkRunInvariants(t, net, res)
		cold := resultDigest(res)
		cfg.Scratch = sc
		res2, err := Run(net, p, a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if warm := resultDigest(res2); warm != cold {
			t.Fatalf("scratch run digest %s != cold run digest %s", warm, cold)
		}
		res3, err := run(net, p, a, cfg.withDefaults(), 0.5*streamMaxToA(p, a))
		if err != nil {
			t.Fatal(err)
		}
		if short := resultDigest(res3); short != cold {
			t.Fatalf("half-ToA window digest %s != derived window digest %s", short, cold)
		}
	})
}

// FuzzConfirmedInvariants does the same for the confirmed-traffic engine's
// bookkeeping: attempts, deliveries and the retransmission counter must
// stay consistent for any topology and retry budget.
func FuzzConfirmedInvariants(f *testing.F) {
	for trial := uint64(0); trial < 6; trial++ {
		f.Add(uint64(77002)+trial, trial)
	}
	f.Fuzz(func(t *testing.T, seed, knobs uint64) {
		net, p, a := fuzzScenario(seed, knobs)
		r := rng.New(seed ^ 0xc2b2ae3d27d4eb4f)
		res, err := runConfirmed(net, p, a, ConfirmedConfig{
			Config:         Config{PacketsPerDevice: 8 + r.Intn(10), Seed: knobs},
			HalfDuplexAcks: knobs%2 == 1,
		}, 0, 1+r.Intn(MaxTransmissions))
		if err != nil {
			t.Fatal(err)
		}
		retx := 0
		for i := 0; i < net.N(); i++ {
			if res.Attempts[i] < res.Generated[i] {
				t.Fatalf("device %d: attempts %d below generated %d", i, res.Attempts[i], res.Generated[i])
			}
			if res.Delivered[i] > res.Generated[i] {
				t.Fatalf("device %d: delivered %d above generated %d", i, res.Delivered[i], res.Generated[i])
			}
			retx += res.Attempts[i] - res.Generated[i]
		}
		if retx != res.Retransmissions {
			t.Fatalf("per-device retransmissions %d vs counter %d", retx, res.Retransmissions)
		}
	})
}
