package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"eflora/internal/exp"
)

func capture(t *testing.T, args []string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := run(args, f); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestTournamentText(t *testing.T) {
	out := capture(t, []string{"-sizes", "20", "-gateways", "2", "-trials", "1",
		"-strategies", "legacy,eflora"})
	for _, want := range []string{"n=20 devices", "legacy", "eflora", "wall-clock"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTournamentJSON(t *testing.T) {
	out := capture(t, []string{"-sizes", "20", "-gateways", "2", "-trials", "1",
		"-strategies", "legacy,eflora", "-json"})
	var tour exp.Tournament
	if err := json.Unmarshal([]byte(out), &tour); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(tour.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(tour.Cells))
	}
}

func TestTournamentBenchOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_tournament.json")
	capture(t, []string{"-sizes", "20", "-gateways", "2", "-trials", "1",
		"-strategies", "legacy,eflora", "-bench-out", path})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec recording
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("invalid recording JSON: %v\n%s", err, data)
	}
	names := map[string]bool{}
	for _, b := range rec.Benchmarks {
		names[b.Name] = true
		if b.NsPerOp <= 0 || b.Iterations != 1 {
			t.Errorf("benchmark %s: ns/op=%v iterations=%d", b.Name, b.NsPerOp, b.Iterations)
		}
	}
	for _, want := range []string{"TournamentAllocate/legacy/n=20", "TournamentAllocate/eflora/n=20"} {
		if !names[want] {
			t.Errorf("recording missing %s (have %v)", want, names)
		}
	}
}

func TestTournamentBadFlags(t *testing.T) {
	f, _ := os.CreateTemp(t.TempDir(), "out")
	defer f.Close()
	if err := run([]string{"-sizes", "abc"}, f); err == nil {
		t.Error("bad -sizes accepted")
	}
	if err := run([]string{"-sizes", "10", "-strategies", "nope"}, f); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestBenchRecordingSkipsSkipped(t *testing.T) {
	tour := &exp.Tournament{Gateways: 2, Trials: 1, Cells: []exp.TournamentCell{
		{Strategy: "legacy", Devices: 10, Trials: 1, WallClock: time.Millisecond},
		{Strategy: "exhaustive", Devices: 10, Skipped: true, SkipReason: "ceiling"},
	}}
	rec := benchRecording(tour, time.Unix(0, 0))
	if len(rec.Benchmarks) != 1 || rec.Benchmarks[0].Name != "TournamentAllocate/legacy/n=10" {
		t.Errorf("unexpected benchmarks: %+v", rec.Benchmarks)
	}
	if rec.Date != "1970-01-01" {
		t.Errorf("date = %q", rec.Date)
	}
}
