package eflora_test

import (
	"os"
	"testing"

	"eflora/internal/alloc"
	"eflora/internal/core"
	"eflora/internal/exp"
	"eflora/internal/geo"
	"eflora/internal/lora"
	"eflora/internal/lorawan"
	"eflora/internal/model"
	"eflora/internal/phy"
	"eflora/internal/rng"
	"eflora/internal/sim"
)

// benchCfg keeps whole-experiment benchmarks in the sub-second range per
// iteration; raise -scale via cmd/eflora-exp for paper-scale runs.
func benchCfg() exp.Config {
	return exp.Config{Scale: 0.02, Trials: 1, PacketsPerDevice: 15, Seed: 3}
}

// benchExperiment runs one experiment driver per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(id, benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper table and figure (DESIGN.md experiment index).

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }

// Hot-path micro-benchmarks.

func BenchmarkTimeOnAir(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += lora.TimeOnAir(21, lora.SF7+lora.SF(i%6), 125e3, lora.CR47)
	}
	_ = sink
}

func benchNetwork(n, g int) (*model.Network, model.Params, model.Allocation) {
	r := rng.New(1)
	net := &model.Network{
		Devices:  geo.UniformDisc(n, 4000, r),
		Gateways: geo.GridGateways(g, 4000),
	}
	p := model.DefaultParams()
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
	return net, p, a
}

// BenchmarkEvaluatorBuild measures constructing the analytical model for a
// 1000-device network.
func BenchmarkEvaluatorBuild(b *testing.B) {
	net, p, a := benchNetwork(1000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.NewEvaluator(net, p, a, model.ModeExact); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinEEIf measures one greedy candidate evaluation — the inner
// loop of Algorithm 1.
func BenchmarkMinEEIf(b *testing.B) {
	net, p, a := benchNetwork(1000, 3)
	ev, err := model.NewEvaluator(net, p, a, model.ModeExact)
	if err != nil {
		b.Fatal(err)
	}
	cur, _ := ev.MinEE()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += ev.MinEEIfAbove(i%1000, lora.SF9, 8, i%8, cur)
	}
	_ = sink
}

// BenchmarkSetDevice measures a committed single-device reallocation.
func BenchmarkSetDevice(b *testing.B) {
	net, p, a := benchNetwork(1000, 3)
	ev, err := model.NewEvaluator(net, p, a, model.ModeExact)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sf := lora.SF7 + lora.SF(i%6)
		if err := ev.SetDevice(i%1000, sf, 8, i%8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEFLoRaAllocate measures a full greedy allocation on a
// 300-device network.
func BenchmarkEFLoRaAllocate(b *testing.B) {
	net, p, _ := benchNetwork(300, 3)
	ef := alloc.NewEFLoRa(alloc.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ef.Allocate(net, p, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures the packet simulator's event loop
// (1000 devices x 20 packets x 3 gateways).
func BenchmarkSimulator(b *testing.B) {
	net, p, a := benchNetwork(1000, 3)
	sc := new(sim.Scratch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := sim.Config{PacketsPerDevice: 20, Seed: uint64(i), Scratch: sc}
		if _, err := sim.Run(net, p, a, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorNoScratch is the same workload without a reusable
// arena — the spread against BenchmarkSimulator is the allocation cost a
// cold caller pays per run.
func BenchmarkSimulatorNoScratch(b *testing.B) {
	net, p, a := benchNetwork(1000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(net, p, a, sim.Config{PacketsPerDevice: 20, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Sequential and BenchmarkFig5Parallel run one figure with
// its (gateway count, method, trial) jobs pinned to one worker and fanned
// out across all CPUs. Results are bit-identical either way; the spread
// measures exp's fan-out speedup (near 1x on a single-core host, where
// only the structure is exercised).
func BenchmarkFig5Sequential(b *testing.B) { benchFig5(b, 1) }
func BenchmarkFig5Parallel(b *testing.B)   { benchFig5(b, 0) }

func benchFig5(b *testing.B, workers int) {
	b.Helper()
	cfg := benchCfg()
	cfg.Trials = 2
	cfg.Parallelism = workers
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run("fig5", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator9GW replays nine gateways on a warm scratch. A run
// is single-threaded, so its -cpu curve stays flat.
func BenchmarkSimulator9GW(b *testing.B) {
	net, p, a := benchNetwork(1000, 9)
	sc := new(sim.Scratch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := sim.Config{PacketsPerDevice: 20, Seed: uint64(i), Scratch: sc}
		if _, err := sim.Run(net, p, a, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Hierarchical-allocator scale benchmarks. The 1k and 10k sizes run in
// seconds; the 100k size and the exact-greedy 10k reference take minutes
// and only run with EFLORA_HEAVY_BENCH=1 (cmd/eflora-bench records them
// into BENCH_alloc.json, which TestHierarchicalScaleRecording pins).

func benchHierarchical(b *testing.B, n, g int) {
	b.Helper()
	net, p, _ := benchNetwork(n, g)
	h := alloc.NewHierarchical(alloc.HierOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Allocate(net, p, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHierarchicalAllocate1k(b *testing.B)  { benchHierarchical(b, 1000, 3) }
func BenchmarkHierarchicalAllocate10k(b *testing.B) { benchHierarchical(b, 10000, 9) }

func BenchmarkHierarchicalAllocate100k(b *testing.B) {
	if os.Getenv("EFLORA_HEAVY_BENCH") == "" {
		b.Skip("minutes-long; set EFLORA_HEAVY_BENCH=1")
	}
	benchHierarchical(b, 100000, 9)
}

// BenchmarkExactGreedyAllocate10k is the flat exact greedy on the same
// 10k deployment as BenchmarkHierarchicalAllocate10k — the reference the
// hierarchical allocator must beat at 10x its size (see
// TestHierarchicalScaleRecording).
func BenchmarkExactGreedyAllocate10k(b *testing.B) {
	if os.Getenv("EFLORA_HEAVY_BENCH") == "" {
		b.Skip("minutes-long; set EFLORA_HEAVY_BENCH=1")
	}
	net, p, _ := benchNetwork(10000, 9)
	ef := alloc.NewEFLoRa(alloc.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ef.Allocate(net, p, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChirpDemod measures the FFT chirp demodulator (SF9).
func BenchmarkChirpDemod(b *testing.B) {
	m, err := phy.NewModem(lora.SF9)
	if err != nil {
		b.Fatal(err)
	}
	sig, err := m.Modulate(123)
	if err != nil {
		b.Fatal(err)
	}
	noisy := phy.AWGN(sig, 0, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Demodulate(noisy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoRaWANEncode measures frame serialization + MIC + encryption.
func BenchmarkLoRaWANEncode(b *testing.B) {
	var keys lorawan.Keys
	for i := range keys.NwkSKey {
		keys.NwkSKey[i] = byte(i)
		keys.AppSKey[i] = byte(i * 3)
	}
	f := lorawan.Frame{
		MType: lorawan.UnconfirmedDataUp, DevAddr: 0x2601AABB,
		FPort: 7, Payload: make([]byte, 8),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.FCnt = uint32(i)
		if _, err := lorawan.Encode(f, keys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeline measures the full build -> allocate -> simulate
// pipeline the experiments iterate.
func BenchmarkPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		netw, err := core.Build(core.Scenario{Devices: 200, Gateways: 3, RadiusM: 4000, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		a, err := netw.Allocate("eflora", alloc.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := netw.Simulate(a, sim.Config{PacketsPerDevice: 15, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
