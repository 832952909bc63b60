// Command eflora-exp regenerates the tables and figures of the paper's
// evaluation section (see DESIGN.md for the experiment index and
// EXPERIMENTS.md for the recorded results).
//
// Usage:
//
//	eflora-exp -exp table1          # one experiment
//	eflora-exp -exp all -scale 0.2  # everything at 20% of paper scale
//	eflora-exp -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"eflora/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "eflora-exp:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("eflora-exp", flag.ContinueOnError)
	var (
		id      = fs.String("exp", "all", "experiment id (see -list) or 'all'")
		list    = fs.Bool("list", false, "list experiment ids and exit")
		scale   = fs.Float64("scale", 0.1, "device-count scale relative to the paper (1.0 = full)")
		trials  = fs.Int("trials", 3, "independent repetitions per data point (paper: 100)")
		packets = fs.Int("packets", 40, "packets per device per simulation")
		seed    = fs.Uint64("seed", 1, "random seed")
		asJSON  = fs.Bool("json", false, "emit each experiment's headline values as JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// exp.Config replaces a non-positive value by its default, and a
	// non-finite scale yields no device count, so either would run
	// something other than what was asked for.
	if math.IsNaN(*scale) || math.IsInf(*scale, 0) || *scale <= 0 {
		return fmt.Errorf("-scale %v: want a finite value above 0", *scale)
	}
	if *trials < 1 {
		return fmt.Errorf("-trials %d: want at least 1", *trials)
	}
	if *packets < 1 {
		return fmt.Errorf("-packets %d: want at least 1", *packets)
	}
	if *list {
		for _, eid := range exp.IDs() {
			title, _ := exp.Title(eid)
			fmt.Fprintf(out, "%-8s %s\n", eid, title)
		}
		return nil
	}
	cfg := exp.Config{
		Scale:            *scale,
		Trials:           *trials,
		PacketsPerDevice: *packets,
		Seed:             *seed,
	}
	ids := []string{*id}
	if *id == "all" {
		ids = exp.IDs()
	}
	if *asJSON {
		all := make(map[string]map[string]float64, len(ids))
		for _, eid := range ids {
			res, err := exp.Run(eid, cfg)
			if err != nil {
				return err
			}
			all[res.ID] = res.Values
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(all)
	}
	for _, eid := range ids {
		res, err := exp.Run(eid, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "=== %s: %s ===\n\n%s\n", res.ID, res.Title, res.Text)
	}
	return nil
}
