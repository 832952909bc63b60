package alloc

import (
	"testing"

	"eflora/internal/model"
	"eflora/internal/rng"
)

func TestStrategiesRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Strategies() {
		if s.Key == "" || s.New == nil {
			t.Fatalf("strategy %+v incomplete", s)
		}
		if seen[s.Key] {
			t.Fatalf("duplicate strategy key %q", s.Key)
		}
		seen[s.Key] = true
		for _, a := range s.Aliases {
			if seen[a] {
				t.Fatalf("alias %q collides", a)
			}
			seen[a] = true
		}
		if s.New(Options{}) == nil {
			t.Fatalf("strategy %q constructs no allocator", s.Key)
		}
	}
}

func TestStrategyByKey(t *testing.T) {
	for _, key := range []string{"legacy", "legacy-lora", "eflora", "EF-LoRa", "hier", "HIERARCHICAL", "anneal", "exhaustive", "adr", "rslora"} {
		if _, err := StrategyByKey(key); err != nil {
			t.Errorf("StrategyByKey(%q): %v", key, err)
		}
	}
	if _, err := StrategyByKey("nope"); err == nil {
		t.Error("unknown key accepted")
	}
}

// TestStrategiesAllocateSmall runs every registered strategy end-to-end on
// a tiny network (sized under every MaxDevices ceiling) and validates the
// result — the tournament harness depends on all of them being runnable
// through the same interface.
func TestStrategiesAllocateSmall(t *testing.T) {
	net := testNetwork(3, 1, 11)
	p := model.DefaultParams()
	for _, s := range Strategies() {
		a, err := s.New(Options{}).Allocate(net, p, rng.New(12))
		if err != nil {
			t.Errorf("%s: %v", s.Key, err)
			continue
		}
		if err := a.Validate(net.N(), p); err != nil {
			t.Errorf("%s: invalid allocation: %v", s.Key, err)
		}
	}
}
