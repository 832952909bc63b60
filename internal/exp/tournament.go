package exp

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"eflora/internal/alloc"
	"eflora/internal/core"
	"eflora/internal/rng"
	"eflora/internal/stats"
)

// TournamentConfig scales the allocator tournament: every selected
// strategy runs over every scenario size, on identical deployments, and
// the analytical model scores the results. Unlike the figure drivers the
// tournament times the allocators themselves, so cells execute
// sequentially — wall-clock numbers are not contaminated by sibling
// allocations competing for cores.
type TournamentConfig struct {
	// Sizes are the device counts of the scenario grid (default 200,
	// 500, 1000).
	Sizes []int
	// Gateways per scenario (default 3).
	Gateways int
	// RadiusM is the deployment disc radius (default 5000).
	RadiusM float64
	// Trials averages each cell over independent topologies (default 3).
	Trials int
	// Seed drives deployment placement and allocator randomness; all
	// strategies see identical deployments per (size, trial).
	Seed uint64
	// Strategies selects registry keys or aliases (empty = every
	// registered strategy).
	Strategies []string
}

func (c TournamentConfig) withDefaults() TournamentConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{200, 500, 1000}
	}
	if c.Gateways <= 0 {
		c.Gateways = 3
	}
	if c.RadiusM <= 0 {
		c.RadiusM = 5000
	}
	if c.Trials <= 0 {
		c.Trials = 3
	}
	return c
}

// TournamentCell is one (strategy, size) grid cell aggregated over trials.
type TournamentCell struct {
	// Strategy is the registry key; Devices the scenario size.
	Strategy string
	Devices  int
	// Trials actually run (0 when skipped).
	Trials int
	// MinEE, MeanEE are trial-averaged analytical energy efficiencies
	// (bits/J); Jain the trial-averaged fairness index.
	MinEE, MeanEE, Jain float64
	// WallClock is the mean per-trial allocation time.
	WallClock time.Duration
	// Skipped marks strategies whose MaxDevices ceiling excludes the
	// size; SkipReason says why.
	Skipped    bool
	SkipReason string
}

// Tournament is a completed run.
type Tournament struct {
	// Gateways and Trials echo the configuration.
	Gateways, Trials int
	// Cells holds the grid in (size-major, registry-order) sequence.
	Cells []TournamentCell
}

// RunTournament executes the fairness-vs-wall-clock grid. Quality metrics
// (MinEE, MeanEE, Jain) are deterministic for a given config; WallClock
// is diagnostic only.
func RunTournament(cfg TournamentConfig) (*Tournament, error) {
	cfg = cfg.withDefaults()
	strategies, err := selectStrategies(cfg.Strategies)
	if err != nil {
		return nil, err
	}
	for _, n := range cfg.Sizes {
		if n <= 0 {
			return nil, fmt.Errorf("exp: tournament size %d out of range", n)
		}
	}
	t := &Tournament{Gateways: cfg.Gateways, Trials: cfg.Trials}
	for _, size := range cfg.Sizes {
		cells := make([]TournamentCell, len(strategies))
		for si, s := range strategies {
			cells[si] = TournamentCell{Strategy: s.Key, Devices: size}
			if s.MaxDevices > 0 && size > s.MaxDevices {
				cells[si].Skipped = true
				cells[si].SkipReason = fmt.Sprintf("size %d exceeds strategy ceiling %d", size, s.MaxDevices)
			}
		}
		for trial := 0; trial < cfg.Trials; trial++ {
			seed := cfg.Seed + uint64(trial)*1000003 + uint64(size)*31
			netw, err := core.Build(core.Scenario{
				Devices:  size,
				Gateways: cfg.Gateways,
				RadiusM:  cfg.RadiusM,
				Seed:     seed,
			})
			if err != nil {
				return nil, err
			}
			for si, s := range strategies {
				if cells[si].Skipped {
					continue
				}
				al := s.New(alloc.Options{})
				//eflora:nondeterminism-ok wall-clock diagnostic; quality metrics below are seed-deterministic
				start := time.Now()
				a, err := al.Allocate(netw.Net, netw.Params, rng.New(seed+7))
				//eflora:nondeterminism-ok wall-clock diagnostic only
				elapsed := time.Since(start)
				if err != nil {
					return nil, fmt.Errorf("exp: tournament %s n=%d: %w", s.Key, size, err)
				}
				ev, err := netw.Evaluate(a)
				if err != nil {
					return nil, fmt.Errorf("exp: tournament %s n=%d: %w", s.Key, size, err)
				}
				c := &cells[si]
				c.Trials++
				c.MinEE += ev.MinEE
				c.MeanEE += ev.MeanEE
				c.Jain += ev.Jain
				c.WallClock += elapsed
			}
		}
		for si := range cells {
			if c := &cells[si]; c.Trials > 0 {
				tf := float64(c.Trials)
				c.MinEE /= tf
				c.MeanEE /= tf
				c.Jain /= tf
				c.WallClock /= time.Duration(c.Trials)
			}
		}
		t.Cells = append(t.Cells, cells...)
	}
	return t, nil
}

// selectStrategies resolves the requested keys (empty = all) in registry
// order, rejecting duplicates after alias resolution.
func selectStrategies(keys []string) ([]alloc.Strategy, error) {
	all := alloc.Strategies()
	if len(keys) == 0 {
		return all, nil
	}
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		s, err := alloc.StrategyByKey(k)
		if err != nil {
			return nil, fmt.Errorf("exp: %w", err)
		}
		if want[s.Key] {
			return nil, fmt.Errorf("exp: strategy %q selected twice", s.Key)
		}
		want[s.Key] = true
	}
	out := make([]alloc.Strategy, 0, len(keys))
	for _, s := range all {
		if want[s.Key] {
			out = append(out, s)
		}
	}
	return out, nil
}

// Render formats the tournament as one table per scenario size, ranked by
// min-EE (skipped strategies last), with wall clocks alongside — the
// fairness-vs-time trade the harness exists to expose.
func (t *Tournament) Render() string {
	var b strings.Builder
	for _, size := range t.sizes() {
		cells := t.cellsFor(size)
		sort.SliceStable(cells, func(i, j int) bool {
			if cells[i].Skipped != cells[j].Skipped {
				return !cells[i].Skipped
			}
			return cells[i].MinEE > cells[j].MinEE
		})
		fmt.Fprintf(&b, "n=%d devices, %d gateways, %d trials\n", size, t.Gateways, t.Trials)
		fmt.Fprintf(&b, "  %-12s %12s %12s %8s %12s\n", "strategy", "min-EE", "mean-EE", "Jain", "wall-clock")
		fmt.Fprintf(&b, "  %-12s %12s %12s %8s %12s\n", "", "(bits/mJ)", "(bits/mJ)", "", "")
		for _, c := range cells {
			if c.Skipped {
				fmt.Fprintf(&b, "  %-12s %s\n", c.Strategy, "skipped: "+c.SkipReason)
				continue
			}
			fmt.Fprintf(&b, "  %-12s %12s %12s %8.4f %12s\n",
				c.Strategy, bpmJ(c.MinEE), bpmJ(c.MeanEE), c.Jain, c.WallClock.Round(time.Millisecond))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Values flattens headline numbers for tests and EXPERIMENTS.md, keyed
// "<strategy>/n=<size>/<metric>".
func (t *Tournament) Values() map[string]float64 {
	v := make(map[string]float64, len(t.Cells)*2)
	for _, c := range t.Cells {
		if c.Skipped {
			continue
		}
		prefix := fmt.Sprintf("%s/n=%d/", c.Strategy, c.Devices)
		v[prefix+"minEE"] = c.MinEE
		v[prefix+"jain"] = c.Jain
	}
	return v
}

// sizes lists the distinct scenario sizes in first-seen order.
func (t *Tournament) sizes() []int {
	var out []int
	seen := map[int]bool{}
	for _, c := range t.Cells {
		if !seen[c.Devices] {
			seen[c.Devices] = true
			out = append(out, c.Devices)
		}
	}
	return out
}

// cellsFor copies the cells of one size (so Render's re-ranking never
// mutates the canonical grid order).
func (t *Tournament) cellsFor(size int) []TournamentCell {
	var out []TournamentCell
	for _, c := range t.Cells {
		if c.Devices == size {
			out = append(out, c)
		}
	}
	return out
}

// JainOfMinEE is a convenience for tests: Jain's index across the
// per-strategy min-EE column of one size.
func (t *Tournament) JainOfMinEE(size int) float64 {
	var ee []float64
	for _, c := range t.cellsFor(size) {
		if !c.Skipped {
			ee = append(ee, c.MinEE)
		}
	}
	return stats.JainIndex(ee)
}
