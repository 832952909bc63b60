package exp

import (
	"strings"
	"testing"
)

// fastStrategies keeps tournament tests in the sub-second range.
var fastStrategies = []string{"legacy", "rslora", "eflora", "hier"}

func TestTournamentGridShape(t *testing.T) {
	tour, err := RunTournament(TournamentConfig{
		Sizes:      []int{20, 40},
		Gateways:   2,
		Trials:     2,
		Seed:       3,
		Strategies: fastStrategies,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(tour.Cells), 2*len(fastStrategies); got != want {
		t.Fatalf("grid has %d cells, want %d", got, want)
	}
	for _, c := range tour.Cells {
		if c.Skipped {
			t.Errorf("%s/n=%d unexpectedly skipped: %s", c.Strategy, c.Devices, c.SkipReason)
			continue
		}
		if c.Trials != 2 {
			t.Errorf("%s/n=%d: %d trials, want 2", c.Strategy, c.Devices, c.Trials)
		}
		if c.MinEE <= 0 || c.MeanEE < c.MinEE {
			t.Errorf("%s/n=%d: MinEE=%v MeanEE=%v", c.Strategy, c.Devices, c.MinEE, c.MeanEE)
		}
		if c.Jain <= 0 || c.Jain > 1+1e-9 {
			t.Errorf("%s/n=%d: Jain=%v", c.Strategy, c.Devices, c.Jain)
		}
		if c.WallClock <= 0 {
			t.Errorf("%s/n=%d: WallClock=%v", c.Strategy, c.Devices, c.WallClock)
		}
	}
}

// TestTournamentMetricsDeterministic pins the harness's core promise: the
// quality columns are bit-identical across two runs of the same
// configuration (wall clocks are not).
func TestTournamentMetricsDeterministic(t *testing.T) {
	cfg := TournamentConfig{
		Sizes:      []int{30},
		Gateways:   2,
		Trials:     2,
		Seed:       9,
		Strategies: fastStrategies,
	}
	a, err := RunTournament(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTournament(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cells {
		ca, cb := a.Cells[i], b.Cells[i]
		if ca.Strategy != cb.Strategy || ca.Devices != cb.Devices {
			t.Fatalf("cell %d order diverged: %s/%d vs %s/%d", i, ca.Strategy, ca.Devices, cb.Strategy, cb.Devices)
		}
		if ca.MinEE != cb.MinEE || ca.MeanEE != cb.MeanEE || ca.Jain != cb.Jain {
			t.Errorf("%s/n=%d metrics diverged between runs: (%v,%v,%v) vs (%v,%v,%v)",
				ca.Strategy, ca.Devices, ca.MinEE, ca.MeanEE, ca.Jain, cb.MinEE, cb.MeanEE, cb.Jain)
		}
	}
}

// TestTournamentSkipsOverCeiling pins the MaxDevices gate: exhaustive
// (ceiling 3) must be skipped, not attempted, on any realistic size.
func TestTournamentSkipsOverCeiling(t *testing.T) {
	tour, err := RunTournament(TournamentConfig{
		Sizes:      []int{25},
		Gateways:   1,
		Trials:     1,
		Seed:       5,
		Strategies: []string{"legacy", "exhaustive"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sawSkip bool
	for _, c := range tour.Cells {
		if c.Strategy == "exhaustive" {
			sawSkip = true
			if !c.Skipped || c.Trials != 0 {
				t.Errorf("exhaustive at n=25 ran: %+v", c)
			}
		}
	}
	if !sawSkip {
		t.Fatal("exhaustive cell missing from grid")
	}
}

func TestTournamentSelectStrategies(t *testing.T) {
	if _, err := RunTournament(TournamentConfig{Sizes: []int{10}, Trials: 1, Strategies: []string{"nope"}}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := RunTournament(TournamentConfig{Sizes: []int{10}, Trials: 1, Strategies: []string{"eflora", "ef-lora"}}); err == nil {
		t.Error("duplicate strategy (via alias) accepted")
	}
	if _, err := RunTournament(TournamentConfig{Sizes: []int{0}, Trials: 1}); err == nil {
		t.Error("non-positive size accepted")
	}
}

func TestTournamentRenderAndValues(t *testing.T) {
	tour, err := RunTournament(TournamentConfig{
		Sizes:      []int{20},
		Gateways:   2,
		Trials:     1,
		Seed:       4,
		Strategies: []string{"legacy", "eflora", "exhaustive"},
	})
	if err != nil {
		t.Fatal(err)
	}
	text := tour.Render()
	for _, want := range []string{"n=20 devices", "legacy", "eflora", "skipped: size 20 exceeds strategy ceiling 3"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q in:\n%s", want, text)
		}
	}
	v := tour.Values()
	if _, ok := v["eflora/n=20/minEE"]; !ok {
		t.Errorf("Values missing eflora/n=20/minEE: %v", v)
	}
	if _, ok := v["exhaustive/n=20/minEE"]; ok {
		t.Error("Values includes a skipped cell")
	}
	if j := tour.JainOfMinEE(20); j <= 0 || j > 1+1e-9 {
		t.Errorf("JainOfMinEE = %v", j)
	}
}
