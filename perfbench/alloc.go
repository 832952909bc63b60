package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"eflora/internal/alloc"
	"eflora/internal/core"
	"eflora/internal/geo"
	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/rng"
)

// allocSize sizes the alloc-fig10 workload.
type allocSize struct {
	// devices per deployment: Fig. 10's 1000-device row at eflora-exp
	// -scale 0.05. At 150 devices one allocation takes ~2 s and its time
	// varies ~4x across deployments, so a 20 s run's median moved ~27%
	// from seed to seed; at 50 devices a run holds ~100 allocations.
	devices int
	// setups is how many cold set-ups setup_s is the median of.
	setups int
}

var allocFig10Size = allocSize{devices: 50, setups: 9}

// fig10Deployment builds one Fig. 10 deployment: devices uniform in the
// paper's 5 km disc, 3 gateways, default parameters.
func fig10Deployment(seed uint64, devices int) (*core.Network, error) {
	return core.Build(core.Scenario{Devices: devices, Gateways: 3, RadiusM: 5000, Seed: seed})
}

// cloneNetwork copies a deployment into a new *model.Network, which the
// gains cache (keyed by network identity) has never seen.
func cloneNetwork(n *model.Network) *model.Network {
	c := &model.Network{
		Devices:  append([]geo.Point(nil), n.Devices...),
		Gateways: append([]geo.Point(nil), n.Gateways...),
	}
	if n.Env != nil {
		c.Env = append([]int(nil), n.Env...)
	}
	if n.IntervalS != nil {
		c.IntervalS = append([]float64(nil), n.IntervalS...)
	}
	return c
}

// checkAllocation verifies one allocation: it validates, a fresh
// evaluator scores it exactly as the report says, and the greedy did not
// end below its start.
func checkAllocation(r *result, net *model.Network, p model.Params, a model.Allocation, rep alloc.Report) {
	if err := a.Validate(net.N(), p); err != nil {
		r.fail("alloc-fig10: invalid allocation: %v", err)
		return
	}
	got, err := alloc.EvaluateMinEE(net, p, a, model.ModeExact)
	if err != nil {
		r.fail("alloc-fig10: evaluate: %v", err)
		return
	}
	if math.Float64bits(got) != math.Float64bits(rep.FinalMinEE) {
		r.fail("alloc-fig10: EvaluateMinEE %v != Report.FinalMinEE %v", got, rep.FinalMinEE)
		return
	}
	if rep.FinalMinEE < rep.InitialMinEE {
		r.fail("alloc-fig10: FinalMinEE %v below InitialMinEE %v", rep.FinalMinEE, rep.InitialMinEE)
	}
}

// allocate is the workload's operation.
func allocate(net *model.Network, p model.Params, seed uint64) (model.Allocation, alloc.Report, error) {
	return alloc.NewEFLoRa(alloc.Options{}).AllocateWithReport(net, p, rng.New(seed))
}

func runAllocFig10(e *env, sz allocSize, r *result) error {
	start := time.Now()
	if err := startPeakRSS(); err != nil {
		r.note("peak RSS: %v; the peak includes generation", err)
	}
	var genNs time.Duration
	deployment := func(stream, k uint64) (*core.Network, uint64, error) {
		t0 := time.Now()
		seed := mix(e.seed, stream, k)
		netw, err := fig10Deployment(seed, sz.devices)
		genNs += time.Since(t0)
		return netw, seed, err
	}

	// Set-up: the constructor plus one cold allocation, what an eflora
	// CLI run pays; repeated so setup_s is a median.
	setups := make([]float64, 0, sz.setups)
	var setupWall time.Duration
	for s := 0; s < sz.setups; s++ {
		netw, seed, err := deployment(1, uint64(s))
		if err != nil {
			return err
		}
		c0, t0 := cpuTime(), time.Now()
		a, rep, err := allocate(netw.Net, netw.Params, seed)
		setups = append(setups, (cpuTime() - c0).Seconds())
		setupWall += time.Since(t0)
		r.attempted++
		if err != nil {
			r.fail("alloc-fig10: set-up allocation: %v", err)
			continue
		}
		checkAllocation(r, netw.Net, netw.Params, a, rep)
	}
	r.note("setup: %d cold allocations, first %.4f s CPU, %.4f s wall in all", len(setups), setups[0], setupWall.Seconds())

	// Timed phase: one fresh deployment per operation, so the gains cache
	// never serves it. A traced run follows each operation with a traced
	// one on a copy of the same deployment, then probes the model layer
	// on that operation's data.
	var tr *tracer
	if e.trace {
		tr = newTracer("main", start, 100000)
	}
	var (
		latMs, cpuMs, overhead []float64
		allocs                 uint64
		tSum                   struct{ cand, impr, passes, wallNs, cpuNs, mallocs int64 }
		finalEE                float64
		traced                 int
	)
	stat0 := readCPUStat()
	phaseStart := time.Now()
	gen0 := genNs
	for k := uint64(0); k == 0 || !phaseDone(e, time.Since(phaseStart)); k++ {
		netw, seed, err := deployment(2, k)
		if err != nil {
			return err
		}
		m0, c0, t0 := mallocs(), cpuTime(), time.Now()
		a, rep, err := allocate(netw.Net, netw.Params, seed)
		wall, cpu, m := time.Since(t0), cpuTime()-c0, mallocs()-m0
		r.attempted++
		if err != nil {
			r.fail("alloc-fig10: allocate: %v", err)
			continue
		}
		checkAllocation(r, netw.Net, netw.Params, a, rep)
		latMs = append(latMs, ms(float64(wall)))
		cpuMs = append(cpuMs, ms(float64(cpu)))
		allocs += m
		if !e.trace {
			continue
		}

		clone := cloneNetwork(netw.Net)
		m0, c0, t0 = mallocs(), cpuTime(), time.Now()
		tr.begin(spAllocate, int64(k))
		ta, trep, err := allocate(clone, netw.Params, seed)
		tr.end(int64(trep.CandidatesTried))
		twall, tcpu, tm := time.Since(t0), cpuTime()-c0, mallocs()-m0
		r.attempted++
		if err != nil {
			r.fail("alloc-fig10: traced allocate: %v", err)
			continue
		}
		checkAllocation(r, clone, netw.Params, ta, trep)
		if trep.CandidatesTried != rep.CandidatesTried || trep.Improvements != rep.Improvements ||
			math.Float64bits(trep.FinalMinEE) != math.Float64bits(rep.FinalMinEE) {
			r.fail("alloc-fig10: traced allocation differs from untraced on deployment %d", k)
		}
		traced++
		tSum.cand += int64(trep.CandidatesTried)
		tSum.impr += int64(trep.Improvements)
		tSum.passes += int64(trep.Passes)
		tSum.wallNs += int64(twall)
		tSum.cpuNs += int64(tcpu)
		tSum.mallocs += int64(tm)
		finalEE += trep.FinalMinEE
		overhead = append(overhead, float64(twall)/float64(wall)-1)
		if err := probeModel(tr, int64(k), netw.Params, cloneNetwork(netw.Net), ta); err != nil {
			r.fail("alloc-fig10: model probe: %v", err)
		}
	}
	phaseWall, phaseGen := time.Since(phaseStart), genNs-gen0
	steal := stealPct(stat0, readCPUStat())
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}

	n := len(latMs)
	slowest := slices.Max(latMs)
	r.e2e["cpu_ms_per_op"] = measured{median(cpuMs), n}
	r.e2e["allocs_per_op"] = measured{float64(allocs) / float64(n), n}
	r.e2e["peak_rss_mb"] = measured{peak, 1}
	r.e2e["setup_s"] = measured{median(setups), len(setups)}
	r.wall["latency_p50_ms"] = measured{median(latMs), n}
	r.wall["throughput_per_s"] = measured{float64(n) / (phaseWall - phaseGen).Seconds(), n}
	r.note("generator: %.4f s building %d deployments (not gated)", genNs.Seconds(), n+traced+len(setups))
	r.note("tail: slowest allocation %.4g ms (n=%d, not gated)", slowest, n)
	r.note("steal: %.3f%% of machine CPU over the timed phase (not gated)", steal)

	if e.trace {
		t := float64(traced)
		r.layers["alloc.candidates_tried"] = measured{float64(tSum.cand) / t, traced}
		r.layers["alloc.improvements"] = measured{float64(tSum.impr) / t, traced}
		r.layers["alloc.passes"] = measured{float64(tSum.passes) / t, traced}
		r.layers["alloc.commit_ratio"] = measured{float64(tSum.impr) / float64(tSum.cand), traced}
		r.layers["alloc.ns_per_candidate"] = measured{float64(tSum.wallNs) / float64(tSum.cand), traced}
		r.layers["alloc.cpu_per_wall"] = measured{float64(tSum.cpuNs) / float64(tSum.wallNs), traced}
		r.layers["alloc.allocs_per_op"] = measured{float64(tSum.mallocs) / t, traced}
		r.layers["alloc.final_min_ee"] = measured{finalEE / t, traced}
		r.layers["model.gains_ms"] = scaled(tr.meanNs(spGains), 1e6)
		r.layers["model.evaluator_build_ms"] = scaled(tr.meanNs(spNewEvaluator), 1e6)
		r.layers["model.min_ee_if_ns"] = tr.nsPerItem(spMinEEIfAbove)
		r.layers["model.set_device_us"] = scaled(tr.nsPerItem(spSetDevice), 1e3)
		r.layers["trace.overhead_pct"] = measured{100 * median(overhead), traced}
		r.layers["host.steal_pct"] = measured{steal, 1}
		if err := saveSpans(e, r, "alloc-fig10", tr); err != nil {
			return err
		}
	}
	return nil
}

// probeModel times the model layer below one allocation on that
// operation's own data: a cold model.Gains, model.NewEvaluator on the
// RS-LoRa start (the greedy's fourth initial allocation), a MinEEIfAbove
// sweep over every device's feasible candidates at the current minimum
// (the greedy's scan with its pruning threshold), and SetDevice commits
// moving every device to the next channel and back.
func probeModel(tr *tracer, op int64, p model.Params, net *model.Network, final model.Allocation) error {
	tr.begin(spGains, op)
	gains := model.Gains(net, p)
	tr.end(1)
	start, err := alloc.RSLoRa{}.Allocate(net, p, nil)
	if err != nil {
		return err
	}
	tr.begin(spNewEvaluator, op)
	_, err = model.NewEvaluator(net, p, start, model.ModeExact)
	tr.end(1)
	if err != nil {
		return err
	}
	ev, err := model.NewEvaluator(net, p, final, model.ModeExact)
	if err != nil {
		return err
	}
	return probeEvaluator(tr, op, p, gains, ev, allDevices(net.N()))
}

// probeEvaluator times MinEEIfAbove over the feasible candidates of the
// given devices at the evaluator's current minimum, then SetDevice commits
// moving each device to the next channel and back.
func probeEvaluator(tr *tracer, op int64, p model.Params, gains [][]float64, ev *model.Evaluator, devices []int) error {
	cur, _ := ev.MinEE()
	levels := p.Plan.TxPowerLevels()
	nch := p.Plan.NumChannels()
	calls := int64(0)
	tr.begin(spMinEEIfAbove, op)
	for _, i := range devices {
		for _, sf := range lora.SFs() {
			for _, tp := range levels {
				if !model.Feasible(gains, i, sf, tp) {
					continue
				}
				for ch := 0; ch < nch; ch++ {
					ev.MinEEIfAbove(i, sf, tp, ch, cur)
					calls++
				}
			}
		}
	}
	tr.end(calls)
	tr.begin(spSetDevice, op)
	for _, i := range devices {
		sf, tp, ch := ev.Assignment(i)
		if err := ev.SetDevice(i, sf, tp, (ch+1)%nch); err != nil {
			tr.end(0)
			return err
		}
		if err := ev.SetDevice(i, sf, tp, ch); err != nil {
			tr.end(0)
			return err
		}
	}
	tr.end(int64(2 * len(devices)))
	return nil
}

func allDevices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// saveSpans writes the kept spans of a traced run under the work
// directory and notes where.
func saveSpans(e *env, r *result, workload string, tracers ...*tracer) error {
	path := fmt.Sprintf("%s/spans-%s-seed%d.csv", e.workDir, workload, e.seed)
	n, err := writeSpans(path, tracers...)
	if err != nil {
		return err
	}
	var dropped int64
	for _, t := range tracers {
		dropped += t.dropped
	}
	r.note("trace: %d spans written to %s (%d more aggregated, not kept)", n, path, dropped)
	return nil
}
