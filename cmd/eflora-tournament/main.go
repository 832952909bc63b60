// Command eflora-tournament runs every registered allocator strategy over
// a scenario grid and reports fairness versus wall clock. Quality metrics
// come from the analytical model, are averaged over trials, and are
// bit-identical for a given seed; wall clocks are diagnostic.
//
// Usage:
//
//	eflora-tournament -sizes 200,500,1000 -trials 3 -seed 1
//	eflora-tournament -strategies eflora,hier -sizes 2000 -json
//	eflora-tournament -sizes 500 -bench-out BENCH_tournament.json
//
// -bench-out writes the grid in the benchmark-recording JSON schema that
// `eflora-bench -diff` consumes, one entry per cell named
// TournamentAllocate/<strategy>/n=<devices>, so tournament wall clocks can
// be tracked against a baseline recording like any benchmark.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"eflora/internal/exp"
)

// recording mirrors the eflora-bench / BENCH_sim.json schema.
type recording struct {
	Description string      `json:"description"`
	Date        string      `json:"date"`
	Host        host        `json:"host"`
	Benchmarks  []benchmark `json:"benchmarks"`
}

type host struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPU    string `json:"cpu"`
	CPUs   int    `json:"cpus"`
}

type benchmark struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// benchRecording converts the tournament grid into the recording schema:
// each non-skipped cell becomes one benchmark whose ns/op is the mean
// allocation wall clock.
func benchRecording(t *exp.Tournament, now time.Time) recording {
	rec := recording{
		Description: fmt.Sprintf("eflora-tournament allocator grid (%d gateways, %d trials)", t.Gateways, t.Trials),
		Date:        now.UTC().Format("2006-01-02"),
		Host:        host{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUs: runtime.NumCPU()},
	}
	for _, c := range t.Cells {
		if c.Skipped {
			continue
		}
		rec.Benchmarks = append(rec.Benchmarks, benchmark{
			Name:       fmt.Sprintf("TournamentAllocate/%s/n=%d", c.Strategy, c.Devices),
			Iterations: c.Trials,
			NsPerOp:    float64(c.WallClock.Nanoseconds()),
		})
	}
	return rec
}

func parseSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -sizes entry %q (want positive integers)", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseStrategies(s string) []string {
	if s == "" || s == "all" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("eflora-tournament", flag.ContinueOnError)
	var (
		sizes      = fs.String("sizes", "200,500,1000", "comma-separated device counts")
		gateways   = fs.Int("gateways", 3, "gateways per scenario")
		radius     = fs.Float64("radius", 5000, "deployment disc radius in meters")
		trials     = fs.Int("trials", 3, "independent topologies averaged per cell")
		seed       = fs.Uint64("seed", 1, "random seed")
		strategies = fs.String("strategies", "all", "comma-separated registry keys, or 'all'")
		asJSON     = fs.Bool("json", false, "emit the full grid as JSON instead of text")
		benchOut   = fs.String("bench-out", "", "also write wall clocks as an eflora-bench recording to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sz, err := parseSizes(*sizes)
	if err != nil {
		return err
	}
	t, err := exp.RunTournament(exp.TournamentConfig{
		Sizes:      sz,
		Gateways:   *gateways,
		RadiusM:    *radius,
		Trials:     *trials,
		Seed:       *seed,
		Strategies: parseStrategies(*strategies),
	})
	if err != nil {
		return err
	}
	if *benchOut != "" {
		f, err := os.Create(*benchOut)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(benchRecording(t, time.Now())); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote bench recording to %s\n", *benchOut)
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(t)
	}
	_, err = fmt.Fprint(out, t.Render())
	return err
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "eflora-tournament:", err)
		os.Exit(1)
	}
}
