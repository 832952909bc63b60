package core

import (
	"math"
	"testing"

	"eflora/internal/alloc"
	"eflora/internal/lifetime"
	"eflora/internal/model"
	"eflora/internal/radio"
	"eflora/internal/sim"
)

func buildSmall(t *testing.T) *Network {
	t.Helper()
	// A chatty reporting interval so ALOHA contention is present and the
	// allocators actually differ.
	p := model.DefaultParams()
	p.PacketIntervalS = 20
	n, err := Build(Scenario{Devices: 100, Gateways: 2, RadiusM: 3000, Seed: 1, Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestBuildDefaults(t *testing.T) {
	n, err := Build(Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if n.Net.N() != 1000 || n.Net.G() != 3 {
		t.Errorf("defaults: N=%d G=%d, want 1000, 3", n.Net.N(), n.Net.G())
	}
}

func TestBuildRejectsBadParams(t *testing.T) {
	bad := model.DefaultParams()
	bad.PacketIntervalS = -1
	if _, err := Build(Scenario{Params: &bad}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestBuildRejectsNonFiniteRadius(t *testing.T) {
	for _, r := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Build(Scenario{Devices: 10, RadiusM: r}); err == nil {
			t.Errorf("radius %v accepted", r)
		}
	}
	// Zero keeps meaning the default.
	netw, err := Build(Scenario{Devices: 10})
	if err != nil {
		t.Fatal(err)
	}
	if netw.Net.N() != 10 {
		t.Errorf("built %d devices, want 10", netw.Net.N())
	}
}

func TestAllocatorByName(t *testing.T) {
	names := []string{"eflora", "EF-LoRa", "legacy", "Legacy-LoRa", "rslora", "RS-LoRa", "eflora-fixed", "adr",
		"anneal", "hier", "Hierarchical", "exhaustive"}
	for _, name := range names {
		if _, err := AllocatorByName(name, alloc.Options{}, 14); err != nil {
			t.Errorf("AllocatorByName(%q): %v", name, err)
		}
	}
	if _, err := AllocatorByName("random", alloc.Options{}, 14); err == nil {
		t.Error("unknown allocator accepted")
	}
	// Every listed name — each registered strategy key and eflora-fixed —
	// must resolve through the facade.
	listed := AllocatorNames()
	if len(listed) != len(alloc.Strategies())+1 {
		t.Errorf("AllocatorNames = %v, want every strategy key and eflora-fixed", listed)
	}
	for _, name := range listed {
		if _, err := AllocatorByName(name, alloc.Options{}, 14); err != nil {
			t.Errorf("listed allocator %q does not resolve: %v", name, err)
		}
	}
}

func TestAllocateEvaluatePipeline(t *testing.T) {
	n := buildSmall(t)
	for _, name := range []string{"eflora", "legacy", "rslora"} {
		a, err := n.Allocate(name, alloc.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ev, err := n.Evaluate(a)
		if err != nil {
			t.Fatalf("%s evaluate: %v", name, err)
		}
		if len(ev.EE) != 100 || len(ev.PRR) != 100 {
			t.Fatalf("%s: evaluation sizes %d/%d", name, len(ev.EE), len(ev.PRR))
		}
		if ev.MinEE < 0 || ev.MeanEE < ev.MinEE {
			t.Errorf("%s: MinEE=%v MeanEE=%v", name, ev.MinEE, ev.MeanEE)
		}
		if ev.Jain <= 0 || ev.Jain > 1+1e-9 {
			t.Errorf("%s: Jain=%v", name, ev.Jain)
		}
		if ev.MinIndex < 0 || ev.EE[ev.MinIndex] != ev.MinEE {
			t.Errorf("%s: MinIndex inconsistent", name)
		}
	}
}

func TestEFLoRaBeatsLegacyThroughFacade(t *testing.T) {
	// Dense, chatty deployment: the bottleneck is collision-limited, the
	// regime where the allocators genuinely differ. (In coverage-limited
	// deployments all methods hit the same far-device bound.)
	p := model.DefaultParams()
	p.PacketIntervalS = 15
	n, err := Build(Scenario{Devices: 300, Gateways: 2, RadiusM: 2000, Seed: 1, Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	ef, err := n.Allocate("eflora", alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lg, err := n.Allocate("legacy", alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	evEF, err := n.Evaluate(ef)
	if err != nil {
		t.Fatal(err)
	}
	evLG, err := n.Evaluate(lg)
	if err != nil {
		t.Fatal(err)
	}
	if evEF.MinEE <= evLG.MinEE {
		t.Errorf("EF-LoRa min EE %v should beat legacy %v", evEF.MinEE, evLG.MinEE)
	}
	// Max-min is EF-LoRa's objective, not Jain; it only needs to stay in
	// the same fairness ballpark while lifting the worst device.
	if evEF.Jain < evLG.Jain-0.02 {
		t.Errorf("EF-LoRa Jain %v trails legacy %v materially", evEF.Jain, evLG.Jain)
	}
}

func TestSimulateAndLifetime(t *testing.T) {
	n := buildSmall(t)
	a, err := n.Allocate("eflora", alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Simulate(a, sim.Config{PacketsPerDevice: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PRR) != 100 {
		t.Fatalf("sim PRR size %d", len(res.PRR))
	}
	lt, err := lifetime.Compute(res.AvgPowerW, radio.NewBatteryFromMilliampHours(2400, 3.3), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if lt.NetworkS <= 0 || math.IsNaN(lt.NetworkS) {
		t.Errorf("network lifetime = %v", lt.NetworkS)
	}
	if lt.FirstDeathS > lt.NetworkS {
		t.Errorf("first death %v after 10%% death %v", lt.FirstDeathS, lt.NetworkS)
	}
}

func TestBitsPerMilliJoule(t *testing.T) {
	if got := BitsPerMilliJoule(1500); got != 1.5 {
		t.Errorf("BitsPerMilliJoule(1500) = %v", got)
	}
}
