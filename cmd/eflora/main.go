// Command eflora generates a LoRa deployment, runs a resource allocator
// (EF-LoRa or one of the paper's baselines) and reports the allocation and
// the analytical model's per-device energy efficiencies.
//
// Usage:
//
//	eflora -devices 1000 -gateways 3 -radius 5000 -allocator eflora -seed 1
//	eflora -allocator legacy -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"eflora/internal/alloc"
	"eflora/internal/core"
	"eflora/internal/lora"
	"eflora/internal/plot"
	"eflora/internal/scenario"
	"eflora/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "eflora:", err)
		os.Exit(1)
	}
}

type jsonOutput struct {
	Devices   int       `json:"devices"`
	Gateways  int       `json:"gateways"`
	Allocator string    `json:"allocator"`
	MinEE     float64   `json:"minEEBitsPerJoule"`
	MeanEE    float64   `json:"meanEEBitsPerJoule"`
	Jain      float64   `json:"jainIndex"`
	SF        []int     `json:"sf"`
	TPdBm     []float64 `json:"tpDBm"`
	Channel   []int     `json:"channel"`
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("eflora", flag.ContinueOnError)
	var (
		devices   = fs.Int("devices", 1000, "number of end devices")
		gateways  = fs.Int("gateways", 3, "number of gateways")
		radius    = fs.Float64("radius", 5000, "deployment disc radius in meters")
		seed      = fs.Uint64("seed", 1, "random seed for device placement")
		allocator = fs.String("allocator", "eflora", "allocator: "+strings.Join(core.AllocatorNames(), ", "))
		delta     = fs.Float64("delta", 0.01, "EF-LoRa convergence threshold (relative)")
		asJSON    = fs.Bool("json", false, "emit the allocation as JSON")
		outFile   = fs.String("out", "", "write the deployment + allocation as a scenario file (eflora-sim -in)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	netw, err := core.Build(core.Scenario{
		Devices:  *devices,
		Gateways: *gateways,
		RadiusM:  *radius,
		Seed:     *seed,
	})
	if err != nil {
		return err
	}
	a, err := netw.Allocate(*allocator, alloc.Options{Delta: *delta})
	if err != nil {
		return err
	}
	ev, err := netw.Evaluate(a)
	if err != nil {
		return err
	}

	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		comment := fmt.Sprintf("eflora -devices %d -gateways %d -radius %g -seed %d -allocator %s",
			*devices, *gateways, *radius, *seed, *allocator)
		if err := scenario.FromNetwork(netw.Net, &a, comment).Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote scenario to %s\n", *outFile)
	}

	if *asJSON {
		jo := jsonOutput{
			Devices:   *devices,
			Gateways:  *gateways,
			Allocator: *allocator,
			MinEE:     ev.MinEE,
			MeanEE:    ev.MeanEE,
			Jain:      ev.Jain,
			TPdBm:     a.TPdBm,
			Channel:   a.Channel,
		}
		jo.SF = make([]int, len(a.SF))
		for i, s := range a.SF {
			jo.SF[i] = int(s)
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(jo)
	}

	fmt.Fprintf(out, "Allocator %s on %d devices / %d gateways (radius %.0f m, seed %d)\n\n",
		*allocator, *devices, *gateways, *radius, *seed)
	fmt.Fprintf(out, "min EE  %.3f bits/mJ (device %d)\n", core.BitsPerMilliJoule(ev.MinEE), ev.MinIndex)
	fmt.Fprintf(out, "mean EE %.3f bits/mJ\n", core.BitsPerMilliJoule(ev.MeanEE))
	fmt.Fprintf(out, "Jain    %.4f\n\n", ev.Jain)

	// SF histogram.
	counts := make(map[lora.SF]int)
	for _, s := range a.SF {
		counts[s]++
	}
	var labels []string
	var vals []float64
	for _, s := range lora.SFs() {
		labels = append(labels, s.String())
		vals = append(vals, float64(counts[s]))
	}
	fmt.Fprintln(out, plot.Bar("Spreading factor distribution", labels, vals, 40))

	// TP histogram.
	tpCounts := make(map[float64]int)
	for _, tp := range a.TPdBm {
		tpCounts[tp]++
	}
	var tps []float64
	for tp := range tpCounts {
		tps = append(tps, tp)
	}
	sort.Float64s(tps)
	labels = labels[:0]
	vals = vals[:0]
	for _, tp := range tps {
		labels = append(labels, fmt.Sprintf("%g dBm", tp))
		vals = append(vals, float64(tpCounts[tp]))
	}
	fmt.Fprintln(out, plot.Bar("Transmission power distribution", labels, vals, 40))

	s := stats.Summarize(ev.EE)
	fmt.Fprintf(out, "EE spread: min %.3f / mean %.3f / max %.3f bits/mJ (std %.3f)\n",
		core.BitsPerMilliJoule(s.Min), core.BitsPerMilliJoule(s.Mean),
		core.BitsPerMilliJoule(s.Max), core.BitsPerMilliJoule(s.Std))
	return nil
}
