package exp

import (
	"fmt"
	"strings"

	"eflora/internal/alloc"
	"eflora/internal/core"
	"eflora/internal/lifetime"
	"eflora/internal/plot"
	"eflora/internal/rng"
	"eflora/internal/sim"
	"eflora/internal/stats"
)

// runAblationOrder measures the density-first device ordering against a
// random ordering (the paper reports density-first cuts the execution
// delay by 10.3% on average at 1000 nodes). Next to the wall times it
// reports the greedy's candidate counts, which do not depend on the host.
func runAblationOrder(cfg Config) (*Result, error) {
	devices := cfg.scaled(1000)
	p := cfg.params(nil)
	// ordering accumulates one ordering's reports over the trials.
	type ordering struct {
		key, label                 string
		opts                       alloc.Options
		secs, minEE, tried, evaled float64
	}
	orders := []*ordering{
		{key: "density", label: "density-first"},
		{key: "random", label: "random order", opts: alloc.Options{RandomOrder: true}},
	}
	for trial := 0; trial < cfg.Trials; trial++ {
		seed := cfg.Seed + uint64(trial)*7919
		netw, err := core.Build(core.Scenario{
			Devices: devices, Gateways: 3, RadiusM: 5000, Seed: seed, Params: &p,
		})
		if err != nil {
			return nil, err
		}
		for _, o := range orders {
			// Only the random ordering draws from the RNG.
			_, rep, err := alloc.NewEFLoRa(o.opts).AllocateWithReport(netw.Net, netw.Params, rng.New(seed))
			if err != nil {
				return nil, err
			}
			o.secs += rep.Elapsed.Seconds()
			o.minEE += rep.FinalMinEE
			o.tried += float64(rep.CandidatesTried)
			o.evaled += float64(rep.CandidatesEvaluated)
		}
	}
	tf := float64(cfg.Trials)
	values := make(map[string]float64)
	var rows [][]string
	for _, o := range orders {
		o.secs /= tf
		o.minEE /= tf
		o.tried /= tf
		o.evaled /= tf
		values[o.key+"_s"] = o.secs
		values[o.key+"_minEE"] = o.minEE
		values[o.key+"_tried"] = o.tried
		values[o.key+"_evaluated"] = o.evaled
		rows = append(rows, []string{o.label, fmt.Sprintf("%.2fs", o.secs),
			fmt.Sprintf("%.0f", o.tried), fmt.Sprintf("%.0f", o.evaled), bpmJ(o.minEE)})
	}
	density, random := orders[0], orders[1]
	if random.secs > 0 {
		values["speedup"] = 1 - density.secs/random.secs
	}
	if random.evaled > 0 {
		values["evaluated_change"] = density.evaled/random.evaled - 1
	}
	var b strings.Builder
	b.WriteString(plot.Table([]string{"Ordering", "time", "candidates tried", "evaluated", "min EE (bits/mJ)"}, rows))
	fmt.Fprintf(&b, "\nDensity-first execution-delay change vs random: %+.1f%% (paper: -10.3%% at 1000 nodes).\n",
		-values["speedup"]*100)
	fmt.Fprintf(&b, "Density-first change in candidate evaluations vs random: %+.1f%% (host-independent).\n",
		values["evaluated_change"]*100)
	return &Result{Text: b.String(), Values: values}, nil
}

// runAblationCapture compares the paper's destroy-both collision rule with
// the 6 dB capture effect in the packet simulator.
func runAblationCapture(cfg Config) (*Result, error) {
	devices := cfg.scaled(2000)
	p := cfg.params(nil)
	netw, err := core.Build(core.Scenario{
		Devices: devices, Gateways: 3, RadiusM: 5000, Seed: cfg.Seed, Params: &p,
	})
	if err != nil {
		return nil, err
	}
	a, err := netw.Allocate("eflora", alloc.Options{})
	if err != nil {
		return nil, err
	}
	values := make(map[string]float64)
	var rows [][]string
	sc := scratchPool.Get().(*sim.Scratch)
	defer scratchPool.Put(sc)
	for _, capture := range []bool{false, true} {
		res, err := netw.Simulate(a, sim.Config{
			PacketsPerDevice: cfg.PacketsPerDevice,
			Seed:             cfg.Seed + 5,
			Capture:          capture,
			Scratch:          sc,
		})
		if err != nil {
			return nil, err
		}
		label, key := "destroy-both (paper)", "paper"
		if capture {
			label, key = "6 dB capture", "capture"
		}
		meanPRR := stats.Mean(res.PRR)
		minEE := stats.Percentile(res.EE, 0.02)
		values[key+"_meanPRR"] = meanPRR
		values[key+"_minEE"] = minEE
		values[key+"_collisions"] = float64(res.CollisionLosses)
		rows = append(rows, []string{
			label, fmt.Sprintf("%.3f", meanPRR), bpmJ(minEE),
			fmt.Sprintf("%d", res.CollisionLosses),
		})
	}
	var b strings.Builder
	b.WriteString(plot.Table([]string{"Collision rule", "mean PRR", "min EE (bits/mJ)", "losses"}, rows))
	b.WriteString("\nCapture rescues the stronger packet of each overlap; the paper's rule is\nconservative (both packets lost regardless of power difference).\n")
	return &Result{Text: b.String(), Values: values}, nil
}

// runAblationConfirmed compares the ETX-scaled lifetime approximation with
// a true confirmed-traffic simulation, where retransmission load feeds
// back into collisions.
func runAblationConfirmed(cfg Config) (*Result, error) {
	devices := cfg.scaled(1000)
	p := cfg.params(nil)
	netw, err := core.Build(core.Scenario{
		Devices: devices, Gateways: 3, RadiusM: 5000, Seed: cfg.Seed, Params: &p,
	})
	if err != nil {
		return nil, err
	}
	a, err := netw.Allocate("eflora", alloc.Options{})
	if err != nil {
		return nil, err
	}
	simCfg := sim.Config{PacketsPerDevice: cfg.PacketsPerDevice, Seed: cfg.Seed + 3}
	un, err := netw.Simulate(a, simCfg)
	if err != nil {
		return nil, err
	}
	co, err := sim.RunConfirmed(netw.Net, netw.Params, a, sim.ConfirmedConfig{Config: simCfg})
	if err != nil {
		return nil, err
	}
	battery := experimentBattery()
	ltApprox, err := lifetime.Compute(un.RetxAvgPowerW, battery, lifetime.DefaultDeadFraction)
	if err != nil {
		return nil, err
	}
	ltTrue, err := lifetime.Compute(co.RetxAvgPowerW, battery, lifetime.DefaultDeadFraction)
	if err != nil {
		return nil, err
	}
	values := map[string]float64{
		"approx_days":     lifetime.Days(ltApprox.NetworkS),
		"confirmed_days":  lifetime.Days(ltTrue.NetworkS),
		"retransmissions": float64(co.Retransmissions),
		"abandoned":       float64(co.Abandoned),
	}
	var b strings.Builder
	b.WriteString(plot.Table(
		[]string{"Lifetime model", "10%-dead lifetime"},
		[][]string{
			{"ETX approximation (unconfirmed sim x 1/PRR)", fmt.Sprintf("%.1f days", values["approx_days"])},
			{"true confirmed traffic (with load feedback)", fmt.Sprintf("%.1f days", values["confirmed_days"])},
		}))
	fmt.Fprintf(&b, "\nConfirmed run: %d retransmissions, %d packets abandoned.\n",
		co.Retransmissions, co.Abandoned)
	b.WriteString("The ETX approximation ignores that retransmissions add collisions; the true\nconfirmed lifetime is therefore the same or shorter.\n")
	return &Result{Text: b.String(), Values: values}, nil
}
