package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"time"

	"eflora/internal/alloc"
	"eflora/internal/core"
	"eflora/internal/engine"
	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/rng"
	"eflora/internal/sim"
)

// simSize sizes the sim-paper workload: EXPERIMENTS.md's Fig. 4 point at
// -scale 0.2 (600 devices, 3 gateways, the 5 km disc, 1% duty cycle
// raised to 5% as eflora-exp scales it) with 40 packets per device.
type simSize struct {
	devices, gateways, packets int
	duty                       float64
	// setups is how many fresh-Scratch runs setup_s is the median of.
	setups int
}

var simPaperSize = simSize{devices: 600, gateways: 3, packets: 40, duty: 0.05, setups: 5}

// simDigest is what a run must reproduce exactly when re-run cold.
type simDigest struct {
	seed                                              uint64
	attempts                                          int
	collisionLosses, capacityDrops, sensitivityMisses int
	delivered                                         []int
}

func digestOf(seed uint64, res *sim.Result, dst []int) simDigest {
	d := simDigest{
		seed:              seed,
		collisionLosses:   res.CollisionLosses,
		capacityDrops:     res.CapacityDrops,
		sensitivityMisses: res.SensitivityMisses,
		delivered:         append(dst[:0], res.Delivered...),
	}
	for _, a := range res.Attempts {
		d.attempts += a
	}
	return d
}

func (d simDigest) equal(o simDigest) bool {
	return d.seed == o.seed && d.attempts == o.attempts && d.collisionLosses == o.collisionLosses &&
		d.capacityDrops == o.capacityDrops && d.sensitivityMisses == o.sensitivityMisses &&
		slices.Equal(d.delivered, o.delivered)
}

// checkSimResult verifies the invariants every run must keep: the fixed
// transmission count, no device delivering more than it sent, and
// gateway-level losses bounded by the receptions attempted.
func checkSimResult(r *result, res *sim.Result, wantAttempts, gateways int) {
	attempts, delivered := 0, 0
	for i, a := range res.Attempts {
		attempts += a
		delivered += res.Delivered[i]
		if res.Delivered[i] < 0 || res.Delivered[i] > a {
			r.fail("sim-paper: device %d delivered %d of %d", i, res.Delivered[i], a)
			return
		}
	}
	losses := res.CollisionLosses + res.CapacityDrops + res.SensitivityMisses
	switch {
	case attempts != wantAttempts:
		r.fail("sim-paper: %d transmissions, want %d", attempts, wantAttempts)
	case delivered == 0:
		r.fail("sim-paper: nothing delivered")
	case losses < 0 || losses > attempts*gateways:
		r.fail("sim-paper: %d gateway losses for %d receptions", losses, attempts*gateways)
	}
}

func runSimPaper(e *env, sz simSize, r *result) error {
	start := time.Now()
	p := model.DefaultParams()
	p.TrafficDutyCycle = sz.duty
	netw, err := core.Build(core.Scenario{Devices: sz.devices, Gateways: sz.gateways, RadiusM: 5000, Seed: mix(e.seed, 1, 0), Params: &p})
	if err != nil {
		return err
	}
	// RS-LoRa generates instantly; the simulator's work does not depend on
	// which allocator produced the allocation.
	a, err := alloc.RSLoRa{}.Allocate(netw.Net, p, nil)
	if err != nil {
		return err
	}
	gen := time.Since(start)
	r.note("generator: %.4f s for the deployment and its RS-LoRa allocation (not gated)", gen.Seconds())
	if err := startPeakRSS(); err != nil {
		r.note("peak RSS: %v; the peak includes generation", err)
	}
	g := netw.Net.G()
	config := func(seed uint64, sc *sim.Scratch) sim.Config {
		return sim.Config{PacketsPerDevice: sz.packets, Seed: seed, Scratch: sc}
	}

	// Set-up: one run on a fresh Scratch; the last set-up's Scratch is the
	// one the timed phase reuses.
	var sc *sim.Scratch
	setups := make([]float64, 0, sz.setups)
	var setupWall time.Duration
	wantAttempts := -1
	for s := 0; s < sz.setups; s++ {
		if s > 0 {
			// Return the previous set-up's arena, so the peak is one set-up's.
			sc = nil
			debug.FreeOSMemory()
		}
		c0, t0 := cpuTime(), time.Now()
		sc = new(sim.Scratch)
		res, err := sim.Run(netw.Net, p, a, config(mix(e.seed, 2, uint64(s)), sc))
		setups = append(setups, (cpuTime() - c0).Seconds())
		setupWall += time.Since(t0)
		r.attempted++
		if err != nil {
			r.fail("sim-paper: set-up run: %v", err)
			continue
		}
		if wantAttempts < 0 {
			wantAttempts = 0
			for _, n := range res.Attempts {
				wantAttempts += n
			}
		}
		checkSimResult(r, res, wantAttempts, g)
	}
	if wantAttempts <= 0 {
		return fmt.Errorf("sim-paper: no set-up run succeeded")
	}

	var tr *tracer
	var pr *simProbe
	if e.trace {
		tr = newTracer("main", start, 100000)
		pr = newSimProbe(netw.Net, p, a)
	}
	var (
		latMs, cpuMs      []float64
		overhead          []float64
		allocs            uint64
		first, last       simDigest
		tWallNs, tCPUNs   int64
		tMallocs, tSelfNs int64
		sums              struct{ tx, delivered, coll, capd, sens int64 }
		traced            int
	)
	stat0 := readCPUStat()
	phaseStart := time.Now()
	for k := uint64(0); k == 0 || !phaseDone(e, time.Since(phaseStart)); k++ {
		seed := mix(e.seed, 3, k)
		m0, c0, t0 := mallocs(), cpuTime(), time.Now()
		res, err := sim.Run(netw.Net, p, a, config(seed, sc))
		wall, cpu, m := time.Since(t0), cpuTime()-c0, mallocs()-m0
		r.attempted++
		if err != nil {
			r.fail("sim-paper: run: %v", err)
			continue
		}
		checkSimResult(r, res, wantAttempts, g)
		latMs = append(latMs, ms(float64(wall)))
		cpuMs = append(cpuMs, ms(float64(cpu)))
		allocs += m
		last = digestOf(seed, res, last.delivered)
		if k == 0 {
			first = last
			first.delivered = slices.Clone(last.delivered)
		}
		if !e.trace {
			continue
		}

		m0, c0, t0 = mallocs(), cpuTime(), time.Now()
		tr.begin(spSimRun, int64(k))
		tres, err := sim.Run(netw.Net, p, a, config(seed, sc))
		tr.end(int64(wantAttempts * g))
		twall, tcpu, tm := time.Since(t0), cpuTime()-c0, mallocs()-m0
		r.attempted++
		if err != nil {
			r.fail("sim-paper: traced run: %v", err)
			continue
		}
		checkSimResult(r, tres, wantAttempts, g)
		if !digestOf(seed, tres, nil).equal(last) {
			r.fail("sim-paper: traced run of seed %d differs from untraced", seed)
		}
		traced++
		tWallNs += int64(twall)
		tCPUNs += int64(tcpu)
		tMallocs += int64(tm)
		sums.tx += int64(wantAttempts)
		sums.coll += int64(tres.CollisionLosses)
		sums.capd += int64(tres.CapacityDrops)
		sums.sens += int64(tres.SensitivityMisses)
		for _, d := range tres.Delivered {
			sums.delivered += int64(d)
		}
		overhead = append(overhead, float64(twall)/float64(wall)-1)
		probeNs, err := pr.run(tr, int64(k), seed, sz.packets)
		if err != nil {
			r.fail("sim-paper: probe: %v", err)
			continue
		}
		tSelfNs += int64(twall) - probeNs
	}
	phaseWall := time.Since(phaseStart)
	steal := stealPct(stat0, readCPUStat())
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}

	// The first and last operations re-run cold must reproduce exactly.
	for _, d := range []simDigest{first, last} {
		r.attempted++
		res, err := sim.Run(netw.Net, p, a, config(d.seed, nil))
		if err != nil {
			r.fail("sim-paper: cold re-run: %v", err)
			continue
		}
		if got := digestOf(d.seed, res, nil); !got.equal(d) {
			r.fail("sim-paper: cold re-run of seed %d differs from the Scratch run", d.seed)
		}
	}

	n := len(latMs)
	slowest := slices.Max(latMs)
	r.e2e["cpu_ms_per_op"] = measured{median(cpuMs), n}
	r.e2e["allocs_per_op"] = measured{float64(allocs) / float64(n), n}
	r.e2e["peak_rss_mb"] = measured{peak, 1}
	r.e2e["setup_s"] = measured{median(setups), len(setups)}
	r.wall["latency_p50_ms"] = measured{median(latMs), n}
	r.wall["throughput_per_s"] = measured{float64(n) / phaseWall.Seconds(), n}
	r.note("setup: %d fresh-Scratch runs, %.4f s wall in all", len(setups), setupWall.Seconds())
	r.note("workload: %d devices, %d gateways, %d transmissions per run", netw.Net.N(), g, wantAttempts)
	r.note("tail: slowest run %.4g ms (n=%d, not gated)", slowest, n)
	r.note("steal: %.3f%% of machine CPU over the timed phase (not gated)", steal)

	if e.trace {
		t := float64(traced)
		rx := float64(sums.tx) * float64(g)
		r.layers["model.gains_ms"] = scaled(tr.meanNs(spGains), 1e6)
		r.layers["sim.transmissions"] = measured{float64(sums.tx) / t, traced}
		r.layers["sim.receptions"] = measured{rx / t, traced}
		r.layers["sim.delivered"] = measured{float64(sums.delivered) / t, traced}
		r.layers["sim.collision_losses"] = measured{float64(sums.coll) / t, traced}
		r.layers["sim.capacity_drops"] = measured{float64(sums.capd) / t, traced}
		r.layers["sim.sensitivity_misses"] = measured{float64(sums.sens) / t, traced}
		r.layers["sim.prr"] = measured{float64(sums.delivered) / float64(sums.tx), traced}
		r.layers["sim.ns_per_reception"] = measured{float64(tWallNs) / rx, traced}
		r.layers["sim.cpu_per_wall"] = measured{float64(tCPUNs) / float64(tWallNs), traced}
		r.layers["sim.allocs_per_op"] = measured{float64(tMallocs) / t, traced}
		r.layers["sim.self_ms"] = measured{ms(float64(tSelfNs)) / t, traced}
		r.layers["rng.fading_ns_per_draw"] = tr.nsPerItem(spFading)
		r.layers["engine.batch_ns_per_rx"] = tr.nsPerItem(spBatch)
		r.layers["trace.overhead_pct"] = measured{100 * median(overhead), traced}
		r.layers["host.steal_pct"] = measured{steal, 1}
		if err := saveSpans(e, r, "sim-paper", tr); err != nil {
			return err
		}
	}
	return nil
}

// simProbe replays one operation's schedule through the layers below
// sim.Run: model.Gains (a cache hit, as inside every run after the
// first), one bulk rng.RNG.RayleighPowerGains draw per transmission and
// gateway, and engine.Gateway.Batch per gateway over the schedule's
// struct-of-arrays window. The schedule comes from a run of the same seed
// with sim.Config.Trace set.
type simProbe struct {
	net    *model.Network
	p      model.Params
	a      model.Allocation
	sc     sim.Scratch
	win    engine.Window
	fading []float64
	rx     []float64
	done   []engine.Done
	eng    engine.Gateway
	cfg    engine.Config
}

func newSimProbe(net *model.Network, p model.Params, a model.Allocation) *simProbe {
	return &simProbe{net: net, p: p, a: a, cfg: engine.Config{
		CaptureLin: lora.DBToLinear(sim.DefaultCaptureThresholdDB),
		Capacity:   p.GatewayCapacity,
		NoiseMW:    lora.DBmToMilliwatts(p.NoiseDBm),
		Thresholds: engine.NewThresholds(),
	}}
}

// run probes one operation and returns the probed layers' total time.
func (pr *simProbe) run(tr *tracer, op int64, seed uint64, packets int) (int64, error) {
	res, err := sim.Run(pr.net, pr.p, pr.a, sim.Config{PacketsPerDevice: packets, Seed: seed, Trace: true, Scratch: &pr.sc})
	if err != nil {
		return 0, err
	}
	g := pr.net.G()
	total := len(res.Trace)
	pr.win.Reset(0)
	pr.win.Grow(total)
	for _, rec := range res.Trace {
		d := rec.Device
		pr.win.Append(d, pr.a.SF[d], pr.a.Channel[d], rec.StartS, rec.StartS+pr.p.TimeOnAir(pr.a.SF[d]), lora.DBmToMilliwatts(pr.a.TPdBm[d]))
	}
	t0 := tr.agg
	tr.begin(spGains, op)
	gains := model.Gains(pr.net, pr.p)
	tr.end(1)
	pr.fading = slices.Grow(pr.fading[:0], total*g)[:total*g]
	tr.begin(spFading, op)
	rng.New(seed).RayleighPowerGains(pr.fading)
	tr.end(int64(total * g))
	pr.rx = slices.Grow(pr.rx[:0], total)[:total]
	for k := 0; k < g; k++ {
		for t := 0; t < total; t++ {
			pr.rx[t] = pr.win.TpMW[t] * gains[pr.win.Dev[t]][k] * pr.fading[t*g+k]
		}
		pr.eng.Reset(pr.cfg)
		tr.begin(spBatch, op)
		pr.done = pr.eng.Batch(&pr.win, pr.rx, math.Inf(1), pr.done[:0])
		tr.end(int64(total))
		if len(pr.done) != total {
			return 0, fmt.Errorf("gateway %d: Batch returned %d verdicts for %d transmissions", k, len(pr.done), total)
		}
	}
	var probed int64
	for _, name := range []spanName{spGains, spFading, spBatch} {
		probed += tr.agg[name].totalNs - t0[name].totalNs
	}
	return probed, nil
}
