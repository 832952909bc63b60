package alloc

import (
	"fmt"
	"strings"
)

// Strategy describes one registered allocator: a stable key, an optional
// device-count ceiling above which the strategy is impractical, and a
// constructor. The registry makes every allocator a first-class,
// enumerable citizen — the tournament harness runs all of them, reports
// name them by key, and the CLIs resolve -allocator flags against it.
type Strategy struct {
	// Key is the canonical lower-case identifier (e.g. "eflora").
	Key string
	// Aliases are accepted alternative spellings.
	Aliases []string
	// MaxDevices, when positive, is the largest network the strategy can
	// reasonably solve; the tournament skips larger scenario sizes.
	MaxDevices int
	// New constructs the allocator. Options fields a strategy does not
	// understand are ignored (Legacy, ADR, RS-LoRa, Anneal, Exhaustive).
	New func(opts Options) Allocator
}

// Strategies returns every registered allocator strategy in deterministic
// display order: baselines first, then the paper's greedy, then the
// scaling and reference solvers.
func Strategies() []Strategy {
	return []Strategy{
		{
			Key:     "legacy",
			Aliases: []string{"legacy-lora"},
			New:     func(Options) Allocator { return Legacy{} },
		},
		{
			Key: "adr",
			New: func(Options) Allocator { return ADR{} },
		},
		{
			Key:     "rslora",
			Aliases: []string{"rs-lora"},
			New:     func(Options) Allocator { return RSLoRa{} },
		},
		{
			Key:     "eflora",
			Aliases: []string{"ef-lora"},
			New:     func(opts Options) Allocator { return NewEFLoRa(opts) },
		},
		{
			Key:        "anneal",
			MaxDevices: 2000,
			New:        func(Options) Allocator { return Anneal{} },
		},
		{
			Key:     "hier",
			Aliases: []string{"hierarchical"},
			New: func(opts Options) Allocator {
				return NewHierarchical(HierOptions{Cell: opts})
			},
		},
		{
			Key:        "exhaustive",
			MaxDevices: 3,
			New:        func(Options) Allocator { return Exhaustive{RestrictChannels: 2} },
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
