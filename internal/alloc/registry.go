package alloc

import (
	"fmt"
	"strings"
)

// Strategy describes one registered allocator: a stable key, a short
// description for CLIs, an optional device-count ceiling above which the
// strategy is impractical, and a constructor. The registry makes every
// allocator a first-class, enumerable citizen — the tournament harness
// runs all of them, and the CLIs resolve -allocator flags against it.
type Strategy struct {
	// Key is the canonical lower-case identifier (e.g. "eflora").
	Key string
	// Aliases are accepted alternative spellings.
	Aliases []string
	// Description is a one-line summary for -h output and reports.
	Description string
	// MaxDevices, when positive, is the largest network the strategy can
	// reasonably solve; the tournament skips larger scenario sizes.
	MaxDevices int
	// New constructs the allocator. Options fields a strategy does not
	// understand are ignored (Legacy, ADR, RS-LoRa); FixedTPdBm and Mode
	// pass through where meaningful.
	New func(opts Options) Allocator
}

// Strategies returns every registered allocator strategy in deterministic
// display order: baselines first, then the paper's greedy, then the
// scaling and reference solvers.
func Strategies() []Strategy {
	return []Strategy{
		{
			Key:         "legacy",
			Aliases:     []string{"legacy-lora"},
			Description: "legacy LoRaWAN: min feasible SF at max power, random channel",
			New:         func(Options) Allocator { return Legacy{} },
		},
		{
			Key:         "adr",
			Description: "LoRaWAN ADR: per-device SNR-margin SF/power control",
			New:         func(Options) Allocator { return ADR{} },
		},
		{
			Key:         "rslora",
			Aliases:     []string{"rs-lora"},
			Description: "RS-LoRa: collision-probability-fair SF shares (Eq. 22)",
			New:         func(Options) Allocator { return RSLoRa{} },
		},
		{
			Key:         "eflora",
			Aliases:     []string{"ef-lora"},
			Description: "EF-LoRa exact greedy max-min energy fairness (Algorithm 1)",
			New:         func(opts Options) Allocator { return NewEFLoRa(opts) },
		},
		{
			Key:         "anneal",
			Description: "simulated-annealing yardstick for the max-min objective",
			MaxDevices:  2000,
			New: func(opts Options) Allocator {
				return Anneal{Mode: opts.Mode}
			},
		},
		{
			Key:         "hier",
			Aliases:     []string{"hierarchical"},
			Description: "hierarchical: quadtree cells + exact greedy + seam reconcile",
			New: func(opts Options) Allocator {
				return NewHierarchical(HierOptions{Cell: opts})
			},
		},
		{
			Key:         "exhaustive",
			Description: "exhaustive optimum (NP-hard; a handful of devices only)",
			MaxDevices:  3,
			New: func(opts Options) Allocator {
				return Exhaustive{Mode: opts.Mode, RestrictChannels: 2}
			},
		},
	}
}

// StrategyByKey resolves a key or alias (case-insensitive).
func StrategyByKey(key string) (Strategy, error) {
	k := strings.ToLower(key)
	for _, s := range Strategies() {
		if s.Key == k {
			return s, nil
		}
		for _, a := range s.Aliases {
			if a == k {
				return s, nil
			}
		}
	}
	keys := make([]string, 0, 8)
	for _, s := range Strategies() {
		keys = append(keys, s.Key)
	}
	return Strategy{}, fmt.Errorf("alloc: unknown strategy %q (want one of %s)", key, strings.Join(keys, ", "))
}
