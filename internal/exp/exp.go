// Package exp contains one driver per table and figure of the paper's
// evaluation section. Each driver builds the deployments, runs the
// allocators, simulates packet traffic, and renders text tables/charts
// mirroring the published artifact. DESIGN.md carries the experiment
// index; EXPERIMENTS.md records paper-vs-measured values.
package exp

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"eflora/internal/alloc"
	"eflora/internal/core"
	"eflora/internal/lifetime"
	"eflora/internal/model"
	"eflora/internal/par"
	"eflora/internal/radio"
	"eflora/internal/rng"
	"eflora/internal/sim"
	"eflora/internal/stats"
)

// Config scales an experiment run. The defaults keep each experiment in
// the seconds range; Scale=1, Trials=20..100 approaches paper scale.
type Config struct {
	// Scale multiplies every device count (default 0.1; the paper's
	// figures use up to 5000 devices).
	Scale float64
	// Trials is the number of independent repetitions averaged per data
	// point (paper: 100; default 3).
	Trials int
	// PacketsPerDevice per simulation run (default 40).
	PacketsPerDevice int
	// Seed drives deployment and simulation randomness.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.1
	}
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if c.PacketsPerDevice <= 0 {
		c.PacketsPerDevice = 40
	}
	return c
}

func (c Config) scaled(n int) int {
	s := int(math.Round(float64(n) * c.Scale))
	if s < 10 {
		s = 10
	}
	return s
}

// paperDutyCycle is the evaluation's traffic setting: every device
// transmits at the 1% regulatory duty-cycle limit ("Duty cycle was set to
// 1%", Section IV), which is what puts the network into the
// collision-limited regime the paper's figures live in.
const paperDutyCycle = 0.01

// params returns the experiment parameters: base (or the paper defaults)
// with duty-cycle-driven traffic. The duty cycle is raised in proportion
// to the device-count scale (capped at 10%) so a scaled-down deployment
// keeps the paper's per-group ALOHA collision intensity: group exposure is
// proportional to duty x group population.
func (c Config) params(base *model.Params) model.Params {
	p := model.DefaultParams()
	if base != nil {
		p = *base
	}
	duty := paperDutyCycle / c.Scale
	// Beyond ~10% duty the pairwise-overlap approximations (and any real
	// network) are deep in congestion collapse; cap there.
	if duty > 0.1 {
		duty = 0.1
	}
	if duty < paperDutyCycle {
		duty = paperDutyCycle
	}
	p.TrafficDutyCycle = duty
	return p
}

// Result is a rendered experiment.
type Result struct {
	// ID is the experiment identifier ("table1", "fig6", ...).
	ID string
	// Title describes the paper artifact.
	Title string
	// Text is the rendered human-readable output.
	Text string
	// Values carries headline numbers for tests and EXPERIMENTS.md.
	Values map[string]float64
}

// runner is an experiment implementation.
type runner struct {
	id    string
	title string
	run   func(Config) (*Result, error)
}

// registry lists every experiment in presentation order: tables, then
// figures, then ablations by id.
var registry = []runner{
	{"table1", "Table I: spreading factor allocation (motivating example)", runTable1},
	{"table2", "Table II: transmission power allocation (motivating example)", runTable2},
	{"table4", "Table IV: SNR thresholds and receiver sensitivities", runTable4},
	{"fig4", "Fig. 4: per-device energy efficiency, 3 methods x {3,5} gateways", runFig4},
	{"fig5", "Fig. 5: CDF of energy efficiency", runFig5},
	{"fig6", "Fig. 6: minimum energy efficiency vs number of end devices", runFig6},
	{"fig7", "Fig. 7: minimum energy efficiency vs number of gateways", runFig7},
	{"fig8", "Fig. 8: network lifetime across deployments", runFig8},
	{"fig9", "Fig. 9: path-loss sensitivity and transmission power ablation", runFig9},
	{"fig10", "Fig. 10: allocation algorithm convergence time", runFig10},
	{"ablation-adr", "Ablation: closed-loop LoRaWAN ADR convergence vs one-shot EF-LoRa", runAblationADR},
	{"ablation-capture", "Ablation: destroy-both collision rule vs 6 dB capture", runAblationCapture},
	{"ablation-confirmed", "Ablation: ETX lifetime approximation vs confirmed-traffic simulation", runAblationConfirmed},
	{"ablation-intersf", "Ablation: perfect vs imperfect SF orthogonality", runAblationInterSF},
	{"ablation-order", "Ablation: density-first vs random device ordering", runAblationOrder},
}

// lookup returns the registered experiment with the given id.
func lookup(id string) (runner, bool) {
	for _, r := range registry {
		if r.id == id {
			return r, true
		}
	}
	return runner{}, false
}

// IDs lists the experiment identifiers in presentation order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, r := range registry {
		ids[i] = r.id
	}
	return ids
}

// Title returns the description of an experiment id.
func Title(id string) (string, bool) {
	r, ok := lookup(id)
	return r.title, ok
}

// Run executes one experiment.
func Run(id string, cfg Config) (*Result, error) {
	r, ok := lookup(id)
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	res, err := r.run(cfg.withDefaults())
	if err != nil {
		return nil, fmt.Errorf("exp: %s: %w", id, err)
	}
	res.ID = id
	res.Title = r.title
	return res, nil
}

// methods compared throughout the evaluation.
var evalMethods = []string{"legacy", "rslora", "eflora"}

// methodLabel maps the internal method keys to the paper's names.
func methodLabel(m string) string {
	switch m {
	case "legacy":
		return "Legacy-LoRa"
	case "rslora":
		return "RS-LoRa"
	case "eflora":
		return "EF-LoRa"
	default:
		return m
	}
}

// trialStats aggregates one method over cfg.Trials independent topologies.
type trialStats struct {
	Method string
	// AllEE concatenates per-device EE (bits/J) across trials.
	AllEE []float64
	// MinEE is the trial-averaged minimum energy efficiency, estimated as
	// the 2nd percentile of the simulated per-device EE: the strict
	// minimum of N noisy per-device estimates is an extreme-value
	// statistic that systematically penalizes fairness-optimized
	// allocations (whose devices all cluster at the minimum), while a low
	// percentile converges to the paper's metric as packets grow.
	MinEE float64
	// MeanEE is the trial-averaged mean.
	MeanEE float64
	// LifetimeS is the trial-averaged 10%-dead network lifetime.
	LifetimeS float64
	// Jain is the trial-averaged fairness index of the EE distribution.
	Jain float64
}

// experimentBattery powers lifetime computations (2400 mAh at 3.3 V).
func experimentBattery() radio.Battery {
	return radio.NewBatteryFromMilliampHours(2400, 3.3)
}

// runMethodTrials builds cfg.Trials topologies of the given size on the
// paper's 5 km deployment disc, applies the method's allocator, simulates
// packet traffic and aggregates: a one-task trial grid.
func runMethodTrials(cfg Config, devices, gateways int, params *model.Params, method string, opts alloc.Options) (trialStats, error) {
	grid, err := runTrialGrid(cfg, []trialTask{{
		devices: devices, gateways: gateways, radiusM: 5000,
		params: params, method: method, opts: opts,
	}})
	if err != nil {
		return trialStats{}, err
	}
	return grid[0], nil
}

// trialTask names one data point and method of a figure: cfg.Trials
// independent topologies of the given size, allocated by the method and
// simulated.
type trialTask struct {
	devices, gateways int
	radiusM           float64
	params            *model.Params
	method            string
	opts              alloc.Options
}

// trialOut is one trial's contribution to its task's trialStats.
type trialOut struct {
	ee                    []float64
	min, mean, jain, life float64
}

// scratchPool recycles simulator arenas across trials: each in-flight
// trial checks one out for its Simulate call, so a figure's hundreds of
// trials share a handful of arenas (one per worker) instead of
// re-allocating schedules, fading matrices and result slices per trial.
var scratchPool = sync.Pool{New: func() any { return new(sim.Scratch) }}

// runTrialGrid evaluates a figure's (data point x method) tasks and
// returns their statistics in task order. Every (task, trial) pair is an
// independent job — each derives its deployment, allocation and
// simulation RNGs from its own seed — so the whole grid fans out once,
// across runtime.GOMAXPROCS(0) workers, and nothing under a job fans out
// again; experiment output is bit-identical at any GOMAXPROCS.
// Each job writes its own slot; each task then folds its slots in trial
// order, keeping every float accumulation in the order of a sequential
// run. Errors surface lowest index first, matching what a sequential loop
// over the same jobs would have returned.
func runTrialGrid(cfg Config, tasks []trialTask) ([]trialStats, error) {
	outs := make([]trialOut, len(tasks)*cfg.Trials)
	errs := make([]error, len(outs))
	par.For(len(outs), func(j int) {
		outs[j], errs[j] = runTrial(cfg, tasks[j/cfg.Trials], j%cfg.Trials)
	})
	if err := par.FirstErr(errs); err != nil {
		return nil, err
	}
	grid := make([]trialStats, len(tasks))
	tf := float64(cfg.Trials)
	for i, t := range tasks {
		ts := trialStats{Method: t.method}
		var sumMin, sumMean, sumLife, sumJain float64
		for _, o := range outs[i*cfg.Trials : (i+1)*cfg.Trials] {
			ts.AllEE = append(ts.AllEE, o.ee...)
			sumMin += o.min
			sumMean += o.mean
			sumJain += o.jain
			sumLife += o.life
		}
		ts.MinEE = sumMin / tf
		ts.MeanEE = sumMean / tf
		ts.LifetimeS = sumLife / tf
		ts.Jain = sumJain / tf
		grid[i] = ts
	}
	return grid, nil
}

// runTrial builds, allocates and simulates one trial of a task.
func runTrial(cfg Config, t trialTask, trial int) (trialOut, error) {
	p := cfg.params(t.params)
	seed := cfg.Seed + uint64(trial)*1000003
	netw, err := core.Build(core.Scenario{
		Devices:  t.devices,
		Gateways: t.gateways,
		RadiusM:  t.radiusM,
		Seed:     seed,
		Params:   &p,
	})
	if err != nil {
		return trialOut{}, err
	}
	al, err := core.AllocatorByName(t.method, t.opts, netw.Params.Plan.MaxTxPowerDBm)
	if err != nil {
		return trialOut{}, err
	}
	a, err := al.Allocate(netw.Net, netw.Params, rng.New(seed+7))
	if err != nil {
		return trialOut{}, err
	}
	sc := scratchPool.Get().(*sim.Scratch)
	defer scratchPool.Put(sc)
	res, err := netw.Simulate(a, sim.Config{
		PacketsPerDevice: cfg.PacketsPerDevice,
		Seed:             seed + 13,
		Scratch:          sc,
	})
	if err != nil {
		return trialOut{}, err
	}
	lt, err := lifetime.Compute(res.RetxAvgPowerW, experimentBattery(), lifetime.DefaultDeadFraction)
	if err != nil {
		return trialOut{}, err
	}
	return trialOut{
		// res aliases the pooled scratch; copy what outlives this trial.
		ee:   append([]float64(nil), res.EE...),
		min:  stats.Percentile(res.EE, 0.02),
		mean: stats.Mean(res.EE),
		jain: stats.JainIndex(res.EE),
		life: lt.NetworkS,
	}, nil
}

// methodTasks builds one task per evaluation method for a deployment on
// the paper's 5 km disc.
func methodTasks(devices, gateways int, params *model.Params) []trialTask {
	tasks := make([]trialTask, 0, len(evalMethods))
	for _, m := range evalMethods {
		tasks = append(tasks, trialTask{
			devices: devices, gateways: gateways, radiusM: 5000,
			params: params, method: m,
		})
	}
	return tasks
}

// bpmJ formats bits/J as the paper's bits/mJ.
func bpmJ(bitsPerJoule float64) string {
	return fmt.Sprintf("%.3f", core.BitsPerMilliJoule(bitsPerJoule))
}
