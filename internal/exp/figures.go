package exp

import (
	"fmt"
	"strings"

	"eflora/internal/alloc"
	"eflora/internal/core"
	"eflora/internal/lifetime"
	"eflora/internal/model"
	"eflora/internal/plot"
	"eflora/internal/rng"
	"eflora/internal/stats"
)

// runFig4 compares the per-device energy-efficiency distributions of the
// three methods on 3000-device deployments with three and five gateways.
func runFig4(cfg Config) (*Result, error) {
	devices := cfg.scaled(3000)
	values := make(map[string]float64)
	var b strings.Builder
	fmt.Fprintf(&b, "Deployment: %d end devices (paper: 3000), %d trials.\n\n", devices, cfg.Trials)
	gwSweep := []int{3, 5}
	var tasks []trialTask
	for _, gw := range gwSweep {
		tasks = append(tasks, methodTasks(devices, gw, nil)...)
	}
	grid, err := runTrialGrid(cfg, tasks)
	if err != nil {
		return nil, err
	}
	for gi, gw := range gwSweep {
		header := []string{"Method", "min EE (bits/mJ)", "mean EE (bits/mJ)", "max EE (bits/mJ)", "std", "Jain"}
		var rows [][]string
		for mi, m := range evalMethods {
			ts := grid[gi*len(evalMethods)+mi]
			s := stats.Summarize(ts.AllEE)
			rows = append(rows, []string{
				methodLabel(m), bpmJ(ts.MinEE), bpmJ(s.Mean), bpmJ(s.Max),
				bpmJ(s.Std), fmt.Sprintf("%.3f", ts.Jain),
			})
			prefix := fmt.Sprintf("%s_%dgw", m, gw)
			values[prefix+"_min"] = ts.MinEE
			values[prefix+"_mean"] = s.Mean
			values[prefix+"_std"] = s.Std
			values[prefix+"_jain"] = ts.Jain
		}
		fmt.Fprintf(&b, "%d gateways:\n%s\n", gw, plot.Table(header, rows))
	}
	b.WriteString("Paper shape: EF-LoRa's distribution is far narrower (higher Jain, lower std)\n" +
		"with similar mean to RS-LoRa; legacy and RS-LoRa fluctuate strongly, and more\n" +
		"gateways raise the mean but worsen the baselines' spread.\n")
	return &Result{Text: b.String(), Values: values}, nil
}

// runFig5 renders the empirical CDFs of the per-device energy efficiency
// for the same runs as Fig. 4.
func runFig5(cfg Config) (*Result, error) {
	devices := cfg.scaled(3000)
	values := make(map[string]float64)
	var b strings.Builder
	gwSweep := []int{3, 5}
	var tasks []trialTask
	for _, gw := range gwSweep {
		tasks = append(tasks, methodTasks(devices, gw, nil)...)
	}
	grid, err := runTrialGrid(cfg, tasks)
	if err != nil {
		return nil, err
	}
	for gi, gw := range gwSweep {
		var c plot.Chart
		c.Title = fmt.Sprintf("CDF of energy efficiency, %d gateways (%d devices)", gw, devices)
		c.XLabel = "EE (bits/mJ)"
		c.YLabel = "P(X<=x)"
		for mi, m := range evalMethods {
			ts := grid[gi*len(evalMethods)+mi]
			ee := make([]float64, len(ts.AllEE))
			for i, v := range ts.AllEE {
				ee[i] = core.BitsPerMilliJoule(v)
			}
			ecdf := stats.NewECDF(ee)
			xs, ps := ecdf.Points(40)
			c.Add(fmt.Sprintf("%s-%dGW", methodLabel(m), gw), xs, ps)
			spread := ecdf.Quantile(0.95) - ecdf.Quantile(0.05)
			values[fmt.Sprintf("%s_%dgw_spread", m, gw)] = spread
			values[fmt.Sprintf("%s_%dgw_median", m, gw)] = ecdf.Quantile(0.5)
			values[fmt.Sprintf("%s_%dgw_p05", m, gw)] = ecdf.Quantile(0.05)
		}
		b.WriteString(c.Render())
		b.WriteByte('\n')
	}
	b.WriteString("Paper shape: EF-LoRa's CDF rises within a narrow EE interval; RS-LoRa and\n" +
		"legacy LoRa spread over a wide range with a low-EE tail.\n")
	return &Result{Text: b.String(), Values: values}, nil
}

// runFig6 sweeps the number of end devices at three gateways and plots
// the minimum energy efficiency per method.
func runFig6(cfg Config) (*Result, error) {
	sweep := []int{500, 1000, 2000, 3000, 4000, 5000}
	values := make(map[string]float64)
	var c plot.Chart
	c.Title = fmt.Sprintf("Minimum energy efficiency vs end devices (3 gateways, scale %g)", cfg.Scale)
	c.XLabel = "end devices (paper scale)"
	c.YLabel = "min EE (bits/mJ)"
	c.YStartZero = true
	var b strings.Builder
	header := []string{"End devices"}
	for _, m := range evalMethods {
		header = append(header, methodLabel(m)+" (bits/mJ)")
	}
	var rows [][]string
	series := make(map[string][]float64, len(evalMethods))
	var tasks []trialTask
	for _, nPaper := range sweep {
		tasks = append(tasks, methodTasks(cfg.scaled(nPaper), 3, nil)...)
	}
	grid, err := runTrialGrid(cfg, tasks)
	if err != nil {
		return nil, err
	}
	for ni, nPaper := range sweep {
		row := []string{fmt.Sprintf("%d (%d scaled)", nPaper, cfg.scaled(nPaper))}
		for mi, m := range evalMethods {
			ts := grid[ni*len(evalMethods)+mi]
			series[m] = append(series[m], core.BitsPerMilliJoule(ts.MinEE))
			row = append(row, bpmJ(ts.MinEE))
			values[fmt.Sprintf("%s_n%d", m, nPaper)] = ts.MinEE
		}
		rows = append(rows, row)
	}
	xs := make([]float64, len(sweep))
	for i, n := range sweep {
		xs[i] = float64(n)
	}
	for _, m := range evalMethods {
		c.Add(methodLabel(m), xs, series[m])
	}
	b.WriteString(plot.Table(header, rows))
	b.WriteByte('\n')
	b.WriteString(c.Render())
	b.WriteString("\nPaper shape: min EE decreases with more devices; EF-LoRa leads, with the\n" +
		"largest margin at small N, narrowing toward 5000 devices.\n")
	return &Result{Text: b.String(), Values: values}, nil
}

// runFig7 sweeps the number of gateways at 3000 devices.
func runFig7(cfg Config) (*Result, error) {
	devices := cfg.scaled(3000)
	sweep := []int{1, 3, 5, 9, 15, 20, 25}
	values := make(map[string]float64)
	var c plot.Chart
	c.Title = fmt.Sprintf("Minimum energy efficiency vs gateways (%d devices)", devices)
	c.XLabel = "gateways"
	c.YLabel = "min EE (bits/mJ)"
	c.YStartZero = true
	header := []string{"Gateways"}
	for _, m := range evalMethods {
		header = append(header, methodLabel(m)+" (bits/mJ)")
	}
	var rows [][]string
	series := make(map[string][]float64, len(evalMethods))
	var tasks []trialTask
	for _, gw := range sweep {
		tasks = append(tasks, methodTasks(devices, gw, nil)...)
	}
	grid, err := runTrialGrid(cfg, tasks)
	if err != nil {
		return nil, err
	}
	for gi, gw := range sweep {
		row := []string{fmt.Sprintf("%d", gw)}
		for mi, m := range evalMethods {
			ts := grid[gi*len(evalMethods)+mi]
			series[m] = append(series[m], core.BitsPerMilliJoule(ts.MinEE))
			row = append(row, bpmJ(ts.MinEE))
			values[fmt.Sprintf("%s_g%d", m, gw)] = ts.MinEE
		}
		rows = append(rows, row)
	}
	xs := make([]float64, len(sweep))
	for i, g := range sweep {
		xs[i] = float64(g)
	}
	for _, m := range evalMethods {
		c.Add(methodLabel(m), xs, series[m])
	}
	var b strings.Builder
	b.WriteString(plot.Table(header, rows))
	b.WriteByte('\n')
	b.WriteString(c.Render())
	b.WriteString("\nPaper shape: EF-LoRa's advantage grows with gateway count; beyond a density\n" +
		"knee the minimum EE stops improving (all devices already on small SFs).\n")
	return &Result{Text: b.String(), Values: values}, nil
}

// runFig8 compares the 10%-dead network lifetime across deployments of
// decreasing density, for all three methods.
func runFig8(cfg Config) (*Result, error) {
	type deployment struct {
		gw, dev int
	}
	deployments := []deployment{
		{3, 5000}, {3, 3000}, {3, 1000}, {5, 1000}, {9, 1000},
	}
	values := make(map[string]float64)
	var labels []string
	perMethod := make(map[string][]float64, len(evalMethods))
	var tasks []trialTask
	for _, d := range deployments {
		tasks = append(tasks, methodTasks(cfg.scaled(d.dev), d.gw, nil)...)
	}
	grid, err := runTrialGrid(cfg, tasks)
	if err != nil {
		return nil, err
	}
	for di, d := range deployments {
		labels = append(labels, fmt.Sprintf("%dGW/%dED (%d scaled)", d.gw, d.dev, cfg.scaled(d.dev)))
		for mi, m := range evalMethods {
			ts := grid[di*len(evalMethods)+mi]
			days := lifetime.Days(ts.LifetimeS)
			perMethod[m] = append(perMethod[m], days)
			values[fmt.Sprintf("%s_%dgw_%ded_days", m, d.gw, d.dev)] = days
		}
	}
	var b strings.Builder
	header := append([]string{"Deployment"}, methodLabel(evalMethods[0]), methodLabel(evalMethods[1]), methodLabel(evalMethods[2]))
	var rows [][]string
	for i, l := range labels {
		rows = append(rows, []string{
			l,
			fmt.Sprintf("%.0f d", perMethod["legacy"][i]),
			fmt.Sprintf("%.0f d", perMethod["rslora"][i]),
			fmt.Sprintf("%.0f d", perMethod["eflora"][i]),
		})
	}
	b.WriteString(plot.Table(header, rows))
	b.WriteByte('\n')
	for _, m := range evalMethods {
		b.WriteString(plot.Bar(fmt.Sprintf("Network lifetime (days), %s", methodLabel(m)), labels, perMethod[m], 40))
		b.WriteByte('\n')
	}
	// Headline gains: EF-LoRa vs baselines averaged over deployments.
	var gainRS, gainLegacy float64
	for i := range labels {
		gainRS += perMethod["eflora"][i]/perMethod["rslora"][i] - 1
		gainLegacy += perMethod["eflora"][i]/perMethod["legacy"][i] - 1
	}
	gainRS /= float64(len(labels))
	gainLegacy /= float64(len(labels))
	values["gain_vs_rslora"] = gainRS
	values["gain_vs_legacy"] = gainLegacy
	fmt.Fprintf(&b, "EF-LoRa lifetime gain: %.1f%% vs RS-LoRa, %.1f%% vs legacy (paper: 15.3%% and 41.5%% on average).\n",
		gainRS*100, gainLegacy*100)
	return &Result{Text: b.String(), Values: values}, nil
}

// runFig9 decomposes EF-LoRa's gains: sensitivity to the path-loss
// exponent beta and the cost of disabling transmission-power allocation.
func runFig9(cfg Config) (*Result, error) {
	devices := cfg.scaled(3000)
	const gw = 3
	// The beta sweep runs on a 2.5 km disc: under the literal power-law
	// attenuation (Eq. 9) with the paper's 14 dBm power cap, beta = 3.0
	// shrinks the SF12 range below 3 km, so the paper's 5 km disc would
	// simply lose coverage rather than reveal allocation sensitivity.
	const radius = 2500
	values := make(map[string]float64)

	betaRuns := []struct {
		label string
		beta  float64
	}{
		{"less path loss (beta 2.4)", 2.4},
		{"paper default (beta 2.7)", 2.7},
		{"more path loss (beta 3.0)", 3.0},
	}
	var b strings.Builder
	var rows [][]string
	var tasks []trialTask
	for _, br := range betaRuns {
		p := model.DefaultParams()
		p.Environments = []model.PathLoss{model.LoSPathLoss(903e6, br.beta)}
		tasks = append(tasks, trialTask{devices: devices, gateways: gw, radiusM: radius, params: &p, method: "eflora"})
	}
	// TP ablation and baselines at the default beta.
	for _, m := range []string{"eflora-fixed", "legacy", "rslora"} {
		tasks = append(tasks, trialTask{devices: devices, gateways: gw, radiusM: radius, method: m})
	}
	grid, err := runTrialGrid(cfg, tasks)
	if err != nil {
		return nil, err
	}
	for bi, br := range betaRuns {
		ts := grid[bi]
		rows = append(rows, []string{br.label, bpmJ(ts.MinEE)})
		values[fmt.Sprintf("eflora_beta%.1f", br.beta)] = ts.MinEE
	}
	tsFixed := grid[len(betaRuns)]
	rows = append(rows, []string{"EF-LoRa fixed max TP", bpmJ(tsFixed.MinEE)})
	values["eflora_fixed_tp"] = tsFixed.MinEE
	for i, m := range []string{"legacy", "rslora"} {
		ts := grid[len(betaRuns)+1+i]
		rows = append(rows, []string{methodLabel(m), bpmJ(ts.MinEE)})
		values[m] = ts.MinEE
	}
	b.WriteString(plot.Table([]string{"Configuration", "min EE (bits/mJ)"}, rows))
	base := values["eflora_beta2.7"]
	if base > 0 {
		values["fixed_tp_loss"] = 1 - values["eflora_fixed_tp"]/base
		fmt.Fprintf(&b, "\nDisabling TP allocation changes min EE by %.1f%% (paper: -26%%).\n",
			-values["fixed_tp_loss"]*100)
	}
	b.WriteString("Paper shape: EF-LoRa stays ahead of both baselines under all beta settings,\n" +
		"and fixed-TP EF-LoRa still beats legacy LoRa.\n")
	return &Result{Text: b.String(), Values: values}, nil
}

// runFig10 measures the wall-clock convergence time of the EF-LoRa greedy
// across network sizes and gateway counts.
func runFig10(cfg Config) (*Result, error) {
	devSweep := []int{1000, 2000, 3000}
	gwSweep := []int{3, 6, 9}
	values := make(map[string]float64)
	header := []string{"End devices \\ Gateways"}
	for _, g := range gwSweep {
		header = append(header, fmt.Sprintf("%d GW", g))
	}
	var rows [][]string
	var xs, ys []float64
	for _, nPaper := range devSweep {
		n := cfg.scaled(nPaper)
		row := []string{fmt.Sprintf("%d (%d scaled)", nPaper, n)}
		for _, g := range gwSweep {
			netw, err := core.Build(core.Scenario{Devices: n, Gateways: g, RadiusM: 5000, Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			_, rep, err := alloc.NewEFLoRa(alloc.Options{}).AllocateWithReport(netw.Net, netw.Params, rng.New(cfg.Seed))
			if err != nil {
				return nil, err
			}
			elapsed := rep.Elapsed
			row = append(row, fmt.Sprintf("%.2fs", elapsed.Seconds()))
			values[fmt.Sprintf("t_n%d_g%d", nPaper, g)] = elapsed.Seconds()
			xs = append(xs, float64(n*g))
			ys = append(ys, elapsed.Seconds())
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	b.WriteString(plot.Table(header, rows))
	var c plot.Chart
	c.Title = "Convergence time vs problem size (devices x gateways)"
	c.XLabel = "N x G"
	c.YLabel = "seconds"
	c.YStartZero = true
	c.Add("EF-LoRa greedy", xs, ys)
	b.WriteByte('\n')
	b.WriteString(c.Render())
	b.WriteString("\nPaper shape: convergence time grows near-linearly in both the number of end\n" +
		"devices and the number of gateways.\n")
	return &Result{Text: b.String(), Values: values}, nil
}
