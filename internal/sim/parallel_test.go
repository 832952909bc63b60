package sim

import (
	"math"
	"sync"
	"testing"

	"eflora/internal/geo"
	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/rng"
)

// parallelScenario builds a six-gateway deployment, so every run replays
// several gateways and merges their verdicts.
func parallelScenario(t *testing.T) (*model.Network, model.Params, model.Allocation) {
	t.Helper()
	r := rng.New(21)
	net := &model.Network{
		Devices:  geo.UniformDisc(80, 3000, r),
		Gateways: geo.GridGateways(6, 3000),
	}
	p := model.DefaultParams()
	p.PacketIntervalS = 30
	a := model.NewAllocation(80, p.Plan)
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
	return net, p, a
}

func runsEqual(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if want.CollisionLosses != got.CollisionLosses ||
		want.CapacityDrops != got.CapacityDrops ||
		want.SensitivityMisses != got.SensitivityMisses {
		t.Fatalf("%s: counters diverged: (%d,%d,%d) vs (%d,%d,%d)", label,
			want.CollisionLosses, want.CapacityDrops, want.SensitivityMisses,
			got.CollisionLosses, got.CapacityDrops, got.SensitivityMisses)
	}
	for i := range want.Delivered {
		if want.Delivered[i] != got.Delivered[i] {
			t.Fatalf("%s: Delivered[%d] = %d vs %d", label, i, want.Delivered[i], got.Delivered[i])
		}
		if want.EE[i] != got.EE[i] {
			t.Fatalf("%s: EE[%d] = %v vs %v (must be bit-identical)", label, i, want.EE[i], got.EE[i])
		}
		if want.RetxAvgPowerW[i] != got.RetxAvgPowerW[i] {
			t.Fatalf("%s: RetxAvgPowerW[%d] diverged", label, i)
		}
	}
	if len(want.Trace) != len(got.Trace) {
		t.Fatalf("%s: trace length %d vs %d", label, len(want.Trace), len(got.Trace))
	}
	for i := range want.Trace {
		if want.Trace[i] != got.Trace[i] {
			t.Fatalf("%s: Trace[%d] = %+v vs %+v", label, i, want.Trace[i], got.Trace[i])
		}
	}
	for i := range want.MaxSNRdB {
		w, g := want.MaxSNRdB[i], got.MaxSNRdB[i]
		if w != g && !(math.IsInf(w, -1) && math.IsInf(g, -1)) {
			t.Fatalf("%s: MaxSNRdB[%d] = %v vs %v", label, i, w, g)
		}
	}
}

func TestRunConcurrentUseIsRaceFree(t *testing.T) {
	// Several goroutines each run the simulator against the same shared
	// network/params/allocation, the way exp's trial grid calls it. Under
	// `go test -race` this fails on any unsynchronized shared write.
	net, p, a := parallelScenario(t)
	var wg sync.WaitGroup
	results := make([]*Result, 4)
	errs := make([]error, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Run(net, p, a, Config{
				PacketsPerDevice: 20, Seed: 42, Trace: true, MeasureSNR: true,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	for i := 1; i < len(results); i++ {
		runsEqual(t, results[0], results[i], "concurrent caller")
	}
}
